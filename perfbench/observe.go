package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"xorp/internal/eventloop"
	"xorp/internal/telemetry"
)

// observer is what a traced run adds to a workload while it measures:
// a timestamped no-op dispatched onto each process loop on a fixed
// schedule, whose delay until it runs is that loop's queue wait, and
// periodic scrapes of each process's metrics registry. A nil observer
// (the plain run) does nothing.
type observer struct {
	mu     sync.Mutex
	waits  map[string]*latencies // loop name -> queue waits (ms)
	first  map[string]sample     // counter -> first scrape
	last   map[string]sample     // counter -> latest scrape
	stopCh chan struct{}
	wg     sync.WaitGroup
}

type sample struct {
	at time.Time
	v  float64
}

// scraped names the counters a traced run scrapes from each registry.
var scraped = []string{
	"bgp_updates_total", "rib_route_events_total", "fea_fib_writes_total",
	"fea_snapshot_gen", "xrl_io_writes_total", "xrl_io_reads_total",
}

// The observer's schedule: a loop probe every probeEvery gives a p99 of
// queue wait from a few seconds of running; scrapes are cheap atomics.
const (
	probeEvery  = 2 * time.Millisecond
	scrapeEvery = 100 * time.Millisecond
)

func newObserver() *observer {
	return &observer{waits: map[string]*latencies{}, first: map[string]sample{}, last: map[string]sample{}}
}

// watch starts probing loops and scraping regs until stop is called.
// The registries' counters are atomics, safe to read from any goroutine.
func (o *observer) watch(loops map[string]*eventloop.Loop, regs []*telemetry.Registry) (stop func()) {
	if o == nil {
		return func() {}
	}
	o.stopCh = make(chan struct{})
	o.wg.Add(1)
	go func() {
		defer o.wg.Done()
		probe := time.NewTicker(probeEvery)
		defer probe.Stop()
		scrape := time.NewTicker(scrapeEvery)
		defer scrape.Stop()
		o.scrape(regs)
		for {
			select {
			case <-o.stopCh:
				o.scrape(regs)
				return
			case <-probe.C:
				for name, l := range loops {
					o.probe(name, l)
				}
			case <-scrape.C:
				o.scrape(regs)
			}
		}
	}()
	return func() {
		close(o.stopCh)
		o.wg.Wait()
	}
}

func (o *observer) probe(name string, l *eventloop.Loop) {
	sent := time.Now()
	l.Dispatch(func() {
		wait := float64(time.Since(sent)) / float64(time.Millisecond)
		o.mu.Lock()
		if o.waits[name] == nil {
			o.waits[name] = &latencies{}
		}
		o.waits[name].add(wait)
		o.mu.Unlock()
	})
}

func (o *observer) scrape(regs []*telemetry.Registry) {
	now := time.Now()
	vals := map[string]float64{}
	for _, r := range regs {
		for _, name := range scraped {
			// xipc's I/O counters are process-wide and registered in
			// every registry; count them once.
			if v, ok := r.Get(name); ok {
				vals[name] = v
			}
		}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for name, v := range vals {
		if _, ok := o.first[name]; !ok {
			o.first[name] = sample{now, v}
		}
		o.last[name] = sample{now, v}
	}
}

// loopWaitP99 is the 99th percentile queue wait of one probed loop.
func (o *observer) loopWaitP99(name string) (float64, int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	l := o.waits[name]
	if l == nil {
		l = &latencies{}
	}
	v, err := percentile(l.ms, 99)
	return v, len(l.ms), err
}

// rate is a scraped counter's increase per second over the watch.
func (o *observer) rate(name string) float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	f, l := o.first[name], o.last[name]
	if d := l.at.Sub(f.at).Seconds(); d > 0 {
		return (l.v - f.v) / d
	}
	return 0
}

// scrapes describes what the watch saw of each scraped counter.
func (o *observer) scrapes() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []string
	for _, name := range scraped {
		if f, ok := o.first[name]; ok {
			l := o.last[name]
			out = append(out, fmt.Sprintf("%s +%.0f in %.2fs", name, l.v-f.v, l.at.Sub(f.at).Seconds()))
		}
	}
	return out
}

// loops lists the probed loop names, sorted.
func (o *observer) loops() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []string
	for n := range o.waits {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
