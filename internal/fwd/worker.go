package fwd

import (
	"sync"
	"sync/atomic"
	"time"
)

// flushEvery is how many lookups a worker batches locally before
// flushing into its atomically-readable counters. Between flushes the
// hot loop touches only worker-local state (the FwFwd discipline);
// observers read counters at most flushEvery lookups stale.
const flushEvery = 1024

// Worker is one forwarding shard: a goroutine looping
// Cursor.Next → Source.Current → Snapshot.Lookup. All mutable state is
// worker-local; the published counters below are write-mostly atomics
// the worker flushes periodically and anyone may read live.
type Worker struct {
	id      int
	lookups atomic.Uint64
	hits    atomic.Uint64
	drops   atomic.Uint64
	gen     atomic.Uint64 // snapshot generation seen at last flush

	latMu sync.Mutex // guards lat: taken once per flush by the worker
	lat   RunningStat
}

// ID returns the worker's index in its pool.
func (w *Worker) ID() int { return w.id }

// Counters returns a live sample of the worker's counters (at most
// flushEvery lookups stale).
func (w *Worker) Counters() Counters {
	c := Counters{
		Worker:  w.id,
		Lookups: w.lookups.Load(),
		Hits:    w.hits.Load(),
		Drops:   w.drops.Load(),
		Gen:     w.gen.Load(),
	}
	w.latMu.Lock()
	c.Latency = w.lat
	w.latMu.Unlock()
	return c
}

// run is the forwarding loop. Each lookup is one atomic snapshot load
// plus a lock-free trie walk; every flushEvery lookups the worker times
// a single lookup as a latency sample, flushes local counts to the
// atomics, and checks for stop.
func (w *Worker) run(src Source, cur *Cursor, stop *atomic.Bool) {
	var hits, drops uint64
	for {
		for i := 0; i < flushEvery-1; i++ {
			dst := cur.Next()
			if _, ok := src.Current().Lookup(dst); ok {
				hits++
			} else {
				drops++
			}
		}
		// Timed sample: one full lookup including the snapshot load.
		dst := cur.Next()
		t0 := time.Now()
		snap := src.Current()
		_, ok := snap.Lookup(dst)
		dt := time.Since(t0)
		if ok {
			hits++
		} else {
			drops++
		}

		w.latMu.Lock()
		w.lat.Push(float64(dt.Nanoseconds()))
		w.latMu.Unlock()
		w.lookups.Add(hits + drops)
		w.hits.Add(hits)
		w.drops.Add(drops)
		w.gen.Store(snap.Gen())
		hits, drops = 0, 0

		if stop.Load() {
			return
		}
	}
}

// Pool runs N workers against one snapshot source and one shared
// traffic ring.
type Pool struct {
	src     Source
	stream  *Stream
	workers []*Worker
	stop    atomic.Bool
	wg      sync.WaitGroup
	started bool
}

// NewPool creates (but does not start) a pool of n workers forwarding
// stream traffic against src.
func NewPool(src Source, stream *Stream, n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{src: src, stream: stream}
	for i := 0; i < n; i++ {
		p.workers = append(p.workers, &Worker{id: i})
	}
	return p
}

// Workers returns the worker count.
func (p *Pool) Workers() int { return len(p.workers) }

// Start launches the worker goroutines. Idempotent until Stop.
func (p *Pool) Start() {
	if p.started {
		return
	}
	p.started = true
	p.stop.Store(false)
	for _, w := range p.workers {
		w := w
		cur := p.stream.Cursor(w.id)
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			w.run(p.src, cur, &p.stop)
		}()
	}
}

// Stop signals the workers and waits for them to flush and exit.
func (p *Pool) Stop() {
	if !p.started {
		return
	}
	p.stop.Store(true)
	p.wg.Wait()
	p.started = false
}

// WorkerCounters samples every worker's counters.
func (p *Pool) WorkerCounters() []Counters {
	out := make([]Counters, len(p.workers))
	for i, w := range p.workers {
		out[i] = w.Counters()
	}
	return out
}

// Counters samples and aggregates all workers (Worker == -1).
func (p *Pool) Counters() Counters {
	agg := Counters{Worker: -1, Gen: p.src.Current().Gen()}
	for _, w := range p.workers {
		c := w.Counters()
		agg.Lookups += c.Lookups
		agg.Hits += c.Hits
		agg.Drops += c.Drops
		agg.Latency.Merge(c.Latency)
	}
	return agg
}
