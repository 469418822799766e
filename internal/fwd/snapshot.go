package fwd

import (
	"net/netip"
	"sync"
	"sync/atomic"

	"xorp/internal/rib"
	"xorp/internal/route"
	"xorp/internal/telemetry"
	"xorp/internal/trie"
)

// Snapshot is one immutable FIB version: a generation number and a
// copy-on-write LPM table. A Snapshot never changes after publication;
// readers may hold one for any length of time and see a consistent
// forwarding table — exactly the route set after some whole number of
// applied batches, never a half-applied one.
type Snapshot struct {
	gen uint64
	tbl *trie.Persistent[route.Entry]
}

var emptySnapshot = &Snapshot{tbl: trie.NewPersistent[route.Entry]()}

// Gen returns the snapshot's generation: the number of publications that
// produced it (the empty table is generation 0).
func (s *Snapshot) Gen() uint64 { return s.gen }

// Len returns the number of installed entries.
func (s *Snapshot) Len() int { return s.tbl.Len() }

// Lookup returns the longest-prefix-match entry for dst. This is the
// forwarding hot path: a pure pointer walk, no locks, no allocation.
func (s *Snapshot) Lookup(dst netip.Addr) (route.Entry, bool) {
	_, e, ok := s.tbl.LongestMatch(dst)
	return e, ok
}

// Get returns the entry installed exactly at net.
func (s *Snapshot) Get(net netip.Prefix) (route.Entry, bool) {
	return s.tbl.Get(net)
}

// Walk visits every installed entry in lexicographic order.
func (s *Snapshot) Walk(fn func(route.Entry) bool) {
	s.tbl.Walk(func(_ netip.Prefix, e route.Entry) bool { return fn(e) })
}

// Source is anything that exposes a current forwarding snapshot.
type Source interface {
	Current() *Snapshot
}

// Publisher owns the write side of the RCU-style snapshot chain: each
// applied rib.FIBBatch derives the next version from the current one in
// one transient trie edit and publishes it with one atomic pointer store.
// Writers serialize among themselves on an internal mutex that no reader
// ever touches; Current is a single atomic load.
//
// Publisher implements Source, so workers can chase its snapshots. In an
// assembled router the FEA owns the Publisher and is its only writer.
type Publisher struct {
	cur atomic.Pointer[Snapshot]

	mu sync.Mutex // serializes Apply writers; guards onInstall

	// onInstall, if set, observes every added or replaced entry once its
	// snapshot is published (profile point 8, "entering the kernel").
	onInstall func(route.Entry)

	// tracer, when set and enabled, receives the StageSnapPub stamp for
	// every added/replaced prefix the moment its snapshot is published —
	// the end of a RouteTrace. Set at assembly time, before traffic.
	tracer *telemetry.Tracer
}

// NewPublisher returns a publisher holding the empty generation-0
// snapshot.
func NewPublisher() *Publisher {
	p := &Publisher{}
	p.cur.Store(emptySnapshot)
	return p
}

// Current returns the latest published snapshot. Safe from any
// goroutine; the result is immutable.
func (p *Publisher) Current() *Snapshot { return p.cur.Load() }

// SetTracer wires the route-latency tracer stamped at snapshot
// publication. Call at assembly time, before traffic flows.
func (p *Publisher) SetTracer(tr *telemetry.Tracer) { p.tracer = tr }

// SetInstallObserver registers a callback invoked for every added or
// replaced entry after the snapshot holding it is published (nil
// removes it). The callback runs on the applying goroutine with the
// write lock released, so it may read or even write the publisher, and
// a slow observer never delays another writer.
func (p *Publisher) SetInstallObserver(fn func(route.Entry)) {
	p.mu.Lock()
	p.onInstall = fn
	p.mu.Unlock()
}

// Apply derives the next snapshot from the current one by applying the
// batch's net operations in one trie.Txn, so a node shared with the
// current snapshot is copied at most once per batch, and publishes it.
// The whole batch becomes visible in one pointer flip. Entries with an invalid prefix are
// ignored. Returns the published snapshot.
func (p *Publisher) Apply(b *rib.FIBBatch) *Snapshot {
	p.mu.Lock()
	old := p.cur.Load()
	x := old.tbl.Txn()
	b.Ops(func(op rib.FIBOp) {
		switch op.Kind {
		case rib.FIBOpAdd, rib.FIBOpReplace:
			x.Insert(op.New.Net, op.New)
		case rib.FIBOpDelete:
			x.Delete(op.Old.Net)
		}
	})
	next := &Snapshot{gen: old.gen + 1, tbl: x.Commit()}
	p.cur.Store(next)
	onInstall := p.onInstall
	p.mu.Unlock()
	if p.tracer.Enabled() {
		p.tracer.StampBatch(telemetry.StageSnapPub, func(yield func(netip.Prefix)) {
			installed(b, func(e route.Entry) { yield(e.Net) })
		})
	}
	if onInstall != nil {
		installed(b, onInstall)
	}
	return next
}

// installed visits the entries b adds or replaces, skipping invalid
// prefixes (which Apply never installs).
func installed(b *rib.FIBBatch, fn func(route.Entry)) {
	b.Ops(func(op rib.FIBOp) {
		if (op.Kind == rib.FIBOpAdd || op.Kind == rib.FIBOpReplace) && op.New.Net.IsValid() {
			fn(op.New)
		}
	})
}
