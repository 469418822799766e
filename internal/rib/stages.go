// Package rib implements the XORP Routing Information Base (paper §5.2):
// the plumbing between routing protocols. Like BGP, the RIB is a network
// of stages through which routes flow — origin tables storing each
// protocol's routes, pairwise merge stages arbitrating by administrative
// distance, an ExtInt stage composing external (BGP) routes with internal
// routes and resolving their nexthops recursively, redist stages feeding
// route redistribution, and register stages implementing the interest
// registration protocol of §5.2.1 (Figure 8).
package rib

import (
	"net/netip"

	"xorp/internal/eventloop"
	"xorp/internal/route"
	"xorp/internal/trie"
)

// Stage is one element of the RIB's stage network. Semantics mirror
// bgp.Stage; routes are route.Entry values. The RIB makes decisions
// "purely on the basis of a single administrative distance metric",
// allowing the distributed pairwise merge design.
type Stage interface {
	Name() string
	Add(e route.Entry)
	Replace(old, new route.Entry)
	Delete(e route.Entry)
	// Lookup returns the stage's announced route exactly matching net.
	Lookup(net netip.Prefix) (route.Entry, bool)
	// LookupBest returns the stage's announced longest-prefix match.
	LookupBest(addr netip.Addr) (route.Entry, bool)

	setDownstream(s Stage)
	downstream() Stage
}

// base supplies plumbing.
type base struct {
	name string
	next Stage
}

func (b *base) Name() string          { return b.name }
func (b *base) setDownstream(s Stage) { b.next = s }
func (b *base) downstream() Stage     { return b.next }

// Plumb wires stages left-to-right.
func Plumb(stages ...Stage) {
	for i := 0; i+1 < len(stages); i++ {
		stages[i].setDownstream(stages[i+1])
	}
}

// addBatcher is an optional Stage capability: absorb a run of consecutive
// Adds in one call, amortizing per-route stage plumbing. Semantics must be
// identical to calling Add per entry in order. The slice is only valid for
// the duration of the call (callers reuse run buffers).
type addBatcher interface {
	AddBatch(es []route.Entry)
}

// deleteBatcher is the Delete counterpart of addBatcher.
type deleteBatcher interface {
	DeleteBatch(es []route.Entry)
}

// sendAddBatch delivers a run of Adds to s, batched when s supports it.
func sendAddBatch(s Stage, es []route.Entry) {
	if len(es) == 0 || s == nil {
		return
	}
	if b, ok := s.(addBatcher); ok {
		b.AddBatch(es)
		return
	}
	for _, e := range es {
		s.Add(e)
	}
}

// sendDeleteBatch delivers a run of Deletes to s, batched when s supports it.
func sendDeleteBatch(s Stage, es []route.Entry) {
	if len(es) == 0 || s == nil {
		return
	}
	if b, ok := s.(deleteBatcher); ok {
		b.DeleteBatch(es)
		return
	}
	for _, e := range es {
		s.Delete(e)
	}
}

// stageEmpty reports whether a stage is known to announce nothing; false
// when unknown. Merge inputs use it to skip per-route other-side lookups
// wholesale during table loads.
func stageEmpty(s Stage) bool {
	if e, ok := s.(interface{ Empty() bool }); ok {
		return e.Empty()
	}
	return false
}

// opSink receives a stage's emissions. Every Stage is an opSink; the
// batch paths substitute a runEmitter to coalesce consecutive same-kind
// emissions into downstream batches.
type opSink interface {
	Add(e route.Entry)
	Replace(old, new route.Entry)
	Delete(e route.Entry)
}

// stageSink adapts a possibly-nil downstream Stage as an opSink.
type stageSink struct{ s Stage }

func (ss stageSink) Add(e route.Entry) {
	if ss.s != nil {
		ss.s.Add(e)
	}
}

func (ss stageSink) Replace(old, new route.Entry) {
	if ss.s != nil {
		ss.s.Replace(old, new)
	}
}

func (ss stageSink) Delete(e route.Entry) {
	if ss.s != nil {
		ss.s.Delete(e)
	}
}

// runEmitter coalesces a stream of emissions into runs: consecutive Adds
// (or Deletes) accumulate and ship downstream as one batch; a Replace or a
// kind switch flushes first, so the downstream stream is byte-identical to
// the unbatched one. Callers must Close when done.
type runEmitter struct {
	next  Stage
	run   []route.Entry
	kind  byte           // 'a' or 'd'
	owner *[]route.Entry // the stage's run buffer, returned by Close
}

// runBufKeep bounds the run buffer a stage keeps between batches, so one
// outsized batch (a full-table stale sweep) does not pin its array.
const runBufKeep = 4096

// newRunEmitter returns an emitter into next that borrows the stage's
// reusable run buffer *buf, so a stage's runs stop regrowing from nil on
// every batch. While borrowed, *buf is nil: a batch that re-enters the
// same stage from downstream grows a buffer of its own instead of
// overwriting a run still being delivered.
func newRunEmitter(next Stage, buf *[]route.Entry) runEmitter {
	em := runEmitter{next: next, run: (*buf)[:0], owner: buf}
	*buf = nil
	return em
}

// Close flushes the pending run and hands the buffer back to its stage.
// Downstream stages never retain a run (see addBatcher), so it is free.
func (em *runEmitter) Close() {
	em.Flush()
	if cap(em.run) <= runBufKeep {
		*em.owner = em.run[:0]
	}
}

func (em *runEmitter) Add(e route.Entry) {
	if em.kind != 'a' {
		em.Flush()
		em.kind = 'a'
	}
	em.run = append(em.run, e)
}

func (em *runEmitter) Delete(e route.Entry) {
	if em.kind != 'd' {
		em.Flush()
		em.kind = 'd'
	}
	em.run = append(em.run, e)
}

func (em *runEmitter) Replace(old, new route.Entry) {
	em.Flush()
	if em.next != nil {
		em.next.Replace(old, new)
	}
}

// Flush ships the pending run downstream.
func (em *runEmitter) Flush() {
	if len(em.run) == 0 {
		return
	}
	if em.kind == 'a' {
		sendAddBatch(em.next, em.run)
	} else {
		sendDeleteBatch(em.next, em.run)
	}
	em.run = em.run[:0]
}

// betterEntry decides between two entries for the same prefix: lower
// administrative distance, then lower metric, then stable (a wins ties).
func betterEntry(a, b route.Entry) route.Entry {
	if b.AdminDistance < a.AdminDistance {
		return b
	}
	if b.AdminDistance == a.AdminDistance && b.Metric < a.Metric {
		return b
	}
	return a
}

// OriginTable is the origin stage for one protocol (Figure 7): it stores
// that protocol's routes and emits changes downstream.
type OriginTable struct {
	base
	loop  *eventloop.Loop
	proto route.Protocol
	ad    uint8
	tbl   *trie.Trie[route.Entry]

	// stale marks routes retained across their protocol's death (BGP
	// graceful-restart semantics, §3's survivability claim): when the
	// Finder reports the origin's process dead, the stored routes stay
	// resolvable and stay in the FIB but are flagged here; a re-learned
	// route clears its flag (an identical re-announcement short-circuits
	// in AddRoute with zero downstream emission), and SweepStale removes
	// whatever the respawned process no longer announces. Staleness lives
	// beside route.Entry, not in it, precisely so Entry.Equal still
	// detects the identical re-announcement. Nil when nothing is stale.
	stale map[netip.Prefix]bool

	// batchGate, when set, vets batch operations: batching upserts the
	// table ahead of the downstream flush, so a downstream stage that
	// reads this table mid-flush (the extint stage re-resolving dependent
	// external routes through the internal side) could observe entries
	// whose announcements it hasn't processed yet. Internal-side origins
	// carry a gate that forbids batching exactly when such dependent
	// reads exist (external routes are present); with the gate closed,
	// batch calls degrade to the per-route path, whose trie writes and
	// emissions advance in lockstep. External origins need no gate:
	// nothing re-reads their table mid-flush.
	batchGate func() bool

	runBuf []route.Entry // reused by the batch paths' runEmitter
}

// NewOriginTable returns an origin table for proto with its default
// administrative distance.
func NewOriginTable(loop *eventloop.Loop, proto route.Protocol) *OriginTable {
	return &OriginTable{
		base:  base{name: "origin(" + proto.String() + ")"},
		loop:  loop,
		proto: proto,
		ad:    route.AdminDistance(proto),
		tbl:   trie.New[route.Entry](),
	}
}

// SetBatchGate installs the batch-safety predicate (see batchGate).
func (o *OriginTable) SetBatchGate(gate func() bool) { o.batchGate = gate }

// batchOK reports whether batch operations are currently safe.
func (o *OriginTable) batchOK() bool { return o.batchGate == nil || o.batchGate() }

// Len returns the number of stored routes.
func (o *OriginTable) Len() int { return o.tbl.Len() }

// MarkAllStale flags every stored route stale without emitting anything
// downstream: the routes remain announced and installed. Returns the
// number of routes marked.
func (o *OriginTable) MarkAllStale() int {
	if o.tbl.Len() == 0 {
		return 0
	}
	if o.stale == nil {
		o.stale = make(map[netip.Prefix]bool, o.tbl.Len())
	}
	n := 0
	o.tbl.Walk(func(net netip.Prefix, _ route.Entry) bool {
		if !o.stale[net] {
			o.stale[net] = true
			n++
		}
		return true
	})
	return n
}

// StaleCount returns the number of routes currently marked stale.
func (o *OriginTable) StaleCount() int { return len(o.stale) }

// clearStale un-flags one prefix (route re-learned or withdrawn).
func (o *OriginTable) clearStale(net netip.Prefix) {
	if o.stale != nil {
		delete(o.stale, net)
	}
}

// SweepStale deletes every route still marked stale, shipping the
// deletions downstream as coalesced runs (the grace window closed: the
// respawned process finished resyncing, or the grace timer expired).
// Returns the number of routes swept.
func (o *OriginTable) SweepStale() int {
	if len(o.stale) == 0 {
		return 0
	}
	// Collect first: DeleteBatch mutates o.stale via clearStale.
	nets := make([]netip.Prefix, 0, len(o.stale))
	for net := range o.stale {
		nets = append(nets, net)
	}
	swept := o.DeleteBatch(nets)
	o.stale = nil
	return swept
}

// AddRoute stores a route from the protocol, stamping protocol and
// administrative distance, and emits Add or Replace. The store and the
// previous-value fetch are one trie traversal (Upsert).
func (o *OriginTable) AddRoute(e route.Entry) {
	e.Net = e.Net.Masked()
	e.Protocol = o.proto
	e.AdminDistance = o.ad
	old, existed := o.tbl.Upsert(e.Net, e)
	o.clearStale(e.Net)
	if o.next == nil {
		return
	}
	if existed {
		if old.Equal(e) {
			// Re-learned identical route: already un-staled above with
			// zero downstream (and zero FIB) churn.
			return
		}
		o.next.Replace(old, e)
	} else {
		o.next.Add(e)
	}
}

// LoadBatch bulk-stores a batch of routes, flushing downstream in
// coalesced runs. The emitted Add/Replace stream is identical to calling
// AddRoute per entry in order; only the plumbing is amortized.
func (o *OriginTable) LoadBatch(es []route.Entry) {
	if !o.batchOK() {
		for _, e := range es {
			o.AddRoute(e)
		}
		return
	}
	em := newRunEmitter(o.next, &o.runBuf)
	for _, e := range es {
		e.Net = e.Net.Masked()
		e.Protocol = o.proto
		e.AdminDistance = o.ad
		old, existed := o.tbl.Upsert(e.Net, e)
		o.clearStale(e.Net)
		if o.next == nil {
			continue
		}
		if existed {
			if old.Equal(e) {
				continue
			}
			em.Replace(old, e)
		} else {
			em.Add(e)
		}
	}
	em.Close()
}

// DeleteRoute removes a route and emits Delete.
func (o *OriginTable) DeleteRoute(net netip.Prefix) bool {
	old, existed := o.tbl.Delete(net.Masked())
	o.clearStale(net.Masked())
	if existed && o.next != nil {
		o.next.Delete(old)
	}
	return existed
}

// DeleteBatch removes a batch of routes, flushing the Deletes downstream
// as one coalesced run. Missing prefixes are skipped. Returns the number
// of routes actually removed.
func (o *OriginTable) DeleteBatch(nets []netip.Prefix) int {
	removed := 0
	if !o.batchOK() {
		for _, net := range nets {
			if o.DeleteRoute(net) {
				removed++
			}
		}
		return removed
	}
	em := newRunEmitter(o.next, &o.runBuf)
	for _, net := range nets {
		old, existed := o.tbl.Delete(net.Masked())
		o.clearStale(net.Masked())
		if !existed {
			continue
		}
		removed++
		em.Delete(old)
	}
	em.Close()
	return removed
}

// DeleteAll removes every route as a background task (protocol shutdown),
// using the safe iterator so concurrent changes are harmless. Each task
// step ships its deletions downstream as one coalesced run instead of
// per-route stage plumbing.
func (o *OriginTable) DeleteAll() *eventloop.Task {
	o.stale = nil // everything is going away; no marks to retain
	it := o.tbl.Iterate()
	return o.loop.AddTask("delete-all("+o.name+")", func() bool {
		batched := o.batchOK()
		em := newRunEmitter(o.next, &o.runBuf)
		done := false
		for i := 0; i < 64; i++ {
			if !it.Valid() {
				it.Close()
				done = true
				break
			}
			net, e, ok := it.Entry()
			it.Next()
			if !ok {
				continue
			}
			o.tbl.Delete(net)
			if batched {
				em.Delete(e)
			} else if o.next != nil {
				o.next.Delete(e)
			}
		}
		em.Close()
		return done
	})
}

// Empty reports whether the table announces nothing.
func (o *OriginTable) Empty() bool { return o.tbl.Len() == 0 }

// Walk visits the stored routes.
func (o *OriginTable) Walk(fn func(route.Entry) bool) {
	o.tbl.Walk(func(_ netip.Prefix, e route.Entry) bool { return fn(e) })
}

// Add panics: origin tables have no upstream.
func (o *OriginTable) Add(route.Entry) { panic("rib: OriginTable has no upstream") }

// Replace panics: origin tables have no upstream.
func (o *OriginTable) Replace(_, _ route.Entry) { panic("rib: OriginTable has no upstream") }

// Delete panics: origin tables have no upstream.
func (o *OriginTable) Delete(route.Entry) { panic("rib: OriginTable has no upstream") }

// Lookup implements Stage.
func (o *OriginTable) Lookup(net netip.Prefix) (route.Entry, bool) {
	return o.tbl.Get(net)
}

// LookupBest implements Stage.
func (o *OriginTable) LookupBest(addr netip.Addr) (route.Entry, bool) {
	_, e, ok := o.tbl.LongestMatch(addr)
	return e, ok
}

// MergeStage combines two route streams, preferring the lower
// administrative distance per prefix (§5.2: "pairwise decisions between
// Merge Stages... this single metric allows more distributed
// decision-making, which we prefer, since it better supports future
// extensions").
type MergeStage struct {
	base
	a, b   Stage         // a is the preferred side on full ties
	runBuf []route.Entry // reused by both inputs' batch paths
}

// NewMergeStage merges parents a and b.
func NewMergeStage(name string, a, b Stage) *MergeStage {
	m := &MergeStage{base: base{name: name}, a: a, b: b}
	a.setDownstream(&mergeInput{m: m, other: b})
	b.setDownstream(&mergeInput{m: m, other: a})
	return m
}

// mergeInput adapts one parent's stream, remembering which side the
// message came from.
type mergeInput struct {
	base
	m     *MergeStage
	other Stage
}

func (mi *mergeInput) Add(e route.Entry) {
	other, ok := mi.other.Lookup(e.Net)
	if !ok {
		mi.m.emitAdd(e)
		return
	}
	// e is new on this side; other was the winner before.
	if winner := betterEntry(other, e); winner.Equal(e) {
		mi.m.emitReplace(other, e)
	}
}

func (mi *mergeInput) Replace(old, new route.Entry) {
	other, ok := mi.other.Lookup(new.Net)
	if !ok {
		mi.m.emitReplace(old, new)
		return
	}
	prev := betterEntry(other, old)
	next := betterEntry(other, new)
	mi.m.emitTransition(prev, next)
}

func (mi *mergeInput) Delete(e route.Entry) {
	other, ok := mi.other.Lookup(e.Net)
	if !ok {
		mi.m.emitDelete(e)
		return
	}
	if winner := betterEntry(other, e); winner.Equal(e) {
		// The deleted route was the winner; the other side takes over.
		mi.m.emitReplace(e, other)
	}
}

// AddBatch amortizes a run of Adds: when the other parent announces
// nothing (the common case while one protocol loads a full table), the
// whole run passes through without per-route other-side lookups;
// otherwise each entry is arbitrated as usual with the emissions
// re-coalesced into runs.
func (mi *mergeInput) AddBatch(es []route.Entry) {
	if stageEmpty(mi.other) {
		sendAddBatch(mi.m.next, es)
		return
	}
	em := newRunEmitter(mi.m.next, &mi.m.runBuf)
	for _, e := range es {
		other, ok := mi.other.Lookup(e.Net)
		if !ok {
			em.Add(e)
			continue
		}
		if winner := betterEntry(other, e); winner.Equal(e) && !other.Equal(e) {
			em.Replace(other, e)
		}
	}
	em.Close()
}

// DeleteBatch is the Delete counterpart of AddBatch.
func (mi *mergeInput) DeleteBatch(es []route.Entry) {
	if stageEmpty(mi.other) {
		sendDeleteBatch(mi.m.next, es)
		return
	}
	em := newRunEmitter(mi.m.next, &mi.m.runBuf)
	for _, e := range es {
		other, ok := mi.other.Lookup(e.Net)
		if !ok {
			em.Delete(e)
			continue
		}
		if winner := betterEntry(other, e); winner.Equal(e) && !e.Equal(other) {
			em.Replace(e, other)
		}
	}
	em.Close()
}

func (mi *mergeInput) Lookup(netip.Prefix) (route.Entry, bool)   { panic("rib: mergeInput lookup") }
func (mi *mergeInput) LookupBest(netip.Addr) (route.Entry, bool) { panic("rib: mergeInput lookup") }

func (m *MergeStage) emitAdd(e route.Entry) {
	if m.next != nil {
		m.next.Add(e)
	}
}

func (m *MergeStage) emitReplace(old, new route.Entry) {
	if m.next != nil && !old.Equal(new) {
		m.next.Replace(old, new)
	}
}

func (m *MergeStage) emitDelete(e route.Entry) {
	if m.next != nil {
		m.next.Delete(e)
	}
}

func (m *MergeStage) emitTransition(prev, next route.Entry) {
	if !prev.Equal(next) {
		m.emitReplace(prev, next)
	}
}

// Add panics: use the parents.
func (m *MergeStage) Add(route.Entry) { panic("rib: MergeStage has adapter inputs") }

// Replace panics: use the parents.
func (m *MergeStage) Replace(_, _ route.Entry) { panic("rib: MergeStage has adapter inputs") }

// Delete panics: use the parents.
func (m *MergeStage) Delete(route.Entry) { panic("rib: MergeStage has adapter inputs") }

// Empty reports whether both parents announce nothing.
func (m *MergeStage) Empty() bool { return stageEmpty(m.a) && stageEmpty(m.b) }

// Lookup implements Stage: the better of the two parents.
func (m *MergeStage) Lookup(net netip.Prefix) (route.Entry, bool) {
	ea, oka := m.a.Lookup(net)
	eb, okb := m.b.Lookup(net)
	switch {
	case oka && okb:
		return betterEntry(ea, eb), true
	case oka:
		return ea, true
	case okb:
		return eb, true
	}
	return route.Entry{}, false
}

// LookupBest implements Stage: the more specific parent match wins; on
// equal specificity the better entry wins.
func (m *MergeStage) LookupBest(addr netip.Addr) (route.Entry, bool) {
	ea, oka := m.a.LookupBest(addr)
	eb, okb := m.b.LookupBest(addr)
	switch {
	case oka && okb:
		if ea.Net.Bits() != eb.Net.Bits() {
			if ea.Net.Bits() > eb.Net.Bits() {
				return ea, true
			}
			return eb, true
		}
		return betterEntry(ea, eb), true
	case oka:
		return ea, true
	case okb:
		return eb, true
	}
	return route.Entry{}, false
}
