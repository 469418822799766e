package bgp

import (
	"net/netip"

	"xorp/internal/core"
	"xorp/internal/eventloop"
)

// fanoutEntry is one decision-process output queued for fanout. run is
// non-nil for a coalesced add-run (op is OpAdd); run members share one
// attrs pointer and one Src, so per-branch specialization is computed once
// per run instead of once per route.
type fanoutEntry struct {
	op       core.Op
	old, new *Route
	run      []*Route
}

// Fanout is the fanout-queue stage of Figure 5: it duplicates the
// decision process's output to each peer's output branch and to the RIB
// branch. Changes are held in a single queue with one read cursor per
// branch (§5.1.1), so a slow peer delays only itself; queued changes are
// duplicated and specialized only at delivery time, after route selection
// but before per-peer output filtering.
type Fanout struct {
	base
	loop *eventloop.Loop
	q    *core.FanoutQueue[fanoutEntry]

	branches      map[string]*fanoutBranch
	pumpScheduled bool
}

// fanoutBranch is one consumer: a peer's output pipeline, a peer group's
// shared output pipeline, or the RIB.
type fanoutBranch struct {
	name   string
	peer   *PeerHandle // nil for group and RIB branches
	group  bool        // group branch: split horizon applied in GroupOut
	head   Stage       // first stage of the output pipeline (nil if fn used)
	fn     func(fanoutEntry) bool
	reader *core.FanoutReader[fanoutEntry]
	// runPos is the resume cursor of a sink branch that applied
	// backpressure mid-run, so redelivery skips already-consumed routes.
	runPos int
	// idle marks a peer branch whose peer has no session: it consumes
	// queued changes as no-ops, so nothing is filtered or stored for a
	// peer nobody can send to (see Fanout.idle).
	idle bool
}

// NewFanout returns an empty fanout stage.
func NewFanout(name string, loop *eventloop.Loop) *Fanout {
	return &Fanout{
		base:     base{name: name},
		loop:     loop,
		q:        core.NewFanoutQueue[fanoutEntry](),
		branches: make(map[string]*fanoutBranch),
	}
}

// AddPeerBranch attaches a peer's output pipeline. Split-horizon and the
// IBGP non-reflection rule are applied here, at duplication time.
func (f *Fanout) AddPeerBranch(name string, peer *PeerHandle, head Stage) {
	b := &fanoutBranch{name: name, peer: peer, head: head}
	b.reader = f.q.AddReader(func(e fanoutEntry) bool { return f.deliverPeer(b, e) })
	f.branches[name] = b
}

// AddGroupBranch attaches a peer group's shared output pipeline. Unlike a
// peer branch, no per-peer specialization happens here: the full decision
// stream drives the shared filter bank once, and the terminal GroupOut
// applies split horizon / the IBGP rule per member.
func (f *Fanout) AddGroupBranch(name string, head Stage) {
	b := &fanoutBranch{name: name, group: true, head: head}
	b.reader = f.q.AddReader(func(e fanoutEntry) bool { return f.deliverGroup(b, e) })
	f.branches[name] = b
}

// AddSinkBranch attaches a function consumer (the RIB branch, tests). fn
// returning false applies backpressure; runs are expanded per-route with a
// resume cursor so backpressure mid-run never duplicates a route.
func (f *Fanout) AddSinkBranch(name string, fn func(op core.Op, old, new *Route) bool) {
	b := &fanoutBranch{name: name}
	b.fn = func(e fanoutEntry) bool {
		if e.run != nil {
			for b.runPos < len(e.run) {
				if !fn(core.OpAdd, nil, e.run[b.runPos]) {
					return false
				}
				b.runPos++
			}
			b.runPos = 0
			return true
		}
		return fn(e.op, e.old, e.new)
	}
	b.reader = f.q.AddReader(b.fn)
	f.branches[name] = b
}

// RemoveBranch detaches a branch (peer deconfigured).
func (f *Fanout) RemoveBranch(name string) {
	if b, ok := f.branches[name]; ok {
		f.q.RemoveReader(b.reader)
		delete(f.branches, name)
	}
}

// idle parks a peer branch while its peer has no session: like the
// deletion stage (§5.1.2), per-peering state follows the peering's state.
// The branch keeps its reader, so the queue still trims past it, but
// consumes every change as a no-op; flow control is lifted, since an
// idle branch consumes at once.
func (f *Fanout) idle(name string) {
	b, ok := f.branches[name]
	if !ok {
		return
	}
	b.idle = true
	b.reader.SetBusy(false)
	f.schedulePump()
}

// resume takes an idle peer branch live. Changes still queued for it are
// consumed as no-ops first: winners, the decision process's current best
// routes, already reflect them. Then every winner sendable to the peer is
// announced into the branch, and later changes flow as usual.
func (f *Fanout) resume(name string, winners []*Route) {
	b, ok := f.branches[name]
	if !ok {
		return
	}
	b.reader.Pump()
	b.idle = false
	for _, r := range winners {
		if b.idle {
			return // the session failed mid-dump and idled the branch again
		}
		if sendable(r, b.peer) {
			b.head.Add(r)
		}
	}
}

// SetBusy flow-controls one branch (a peer whose transport is congested).
func (f *Fanout) SetBusy(name string, busy bool) {
	if b, ok := f.branches[name]; ok {
		b.reader.SetBusy(busy)
		if !busy {
			f.schedulePump()
		}
	}
}

// Backlog reports a branch's unconsumed queue length.
func (f *Fanout) Backlog(name string) int {
	if b, ok := f.branches[name]; ok {
		return b.reader.Backlog()
	}
	return 0
}

// QueueLen reports the single queue's current length.
func (f *Fanout) QueueLen() int { return f.q.Len() }

// sendable reports whether r may be advertised to peer: not back to its
// originator (split horizon), and not from one IBGP peer to another
// (IBGP full-mesh rule, RFC 4271 §9.2.1).
func sendable(r *Route, peer *PeerHandle) bool {
	if r == nil {
		return false
	}
	if r.Src == nil {
		return true // locally originated: goes everywhere
	}
	if r.Src == peer {
		return false
	}
	if r.Src.IBGP && peer.IBGP {
		return false
	}
	return true
}

// deliverPeer specializes one queued change for one peer branch. A run is
// screened with a single sendable check (run members share Src, the only
// route field sendable reads).
func (f *Fanout) deliverPeer(b *fanoutBranch, e fanoutEntry) bool {
	if b.idle {
		return true
	}
	if e.run != nil {
		if sendable(e.run[0], b.peer) {
			addRun(b.head, e.run)
		}
		return true
	}
	so := e.op != core.OpAdd && sendable(e.old, b.peer)
	sn := e.op != core.OpDelete && sendable(e.new, b.peer)
	switch {
	case so && sn:
		b.head.Replace(e.old, e.new)
	case sn:
		b.head.Add(e.new)
	case so:
		b.head.Delete(e.old)
	}
	return true
}

// deliverGroup drives one queued change into a group branch undegraded;
// membership (split horizon, IBGP rule) is resolved per member by the
// GroupOut at the end of the shared pipeline.
func (f *Fanout) deliverGroup(b *fanoutBranch, e fanoutEntry) bool {
	if e.run != nil {
		addRun(b.head, e.run)
		return true
	}
	switch e.op {
	case core.OpAdd:
		b.head.Add(e.new)
	case core.OpReplace:
		b.head.Replace(e.old, e.new)
	case core.OpDelete:
		b.head.Delete(e.old)
	}
	return true
}

// schedulePump coalesces pump work onto one queued event.
func (f *Fanout) schedulePump() {
	if f.pumpScheduled {
		return
	}
	f.pumpScheduled = true
	f.loop.Dispatch(func() {
		f.pumpScheduled = false
		f.q.PumpAll()
	})
}

// Add implements Stage.
func (f *Fanout) Add(r *Route) {
	f.q.Push(fanoutEntry{op: core.OpAdd, new: r})
	f.schedulePump()
}

// AddRun implements RunStage: the run is queued as one entry, so every
// branch pays one specialization (and, for groups, one encode) per run.
func (f *Fanout) AddRun(rs []*Route) {
	f.q.Push(fanoutEntry{op: core.OpAdd, run: rs})
	f.schedulePump()
}

// Replace implements Stage.
func (f *Fanout) Replace(old, new *Route) {
	f.q.Push(fanoutEntry{op: core.OpReplace, old: old, new: new})
	f.schedulePump()
}

// Delete implements Stage.
func (f *Fanout) Delete(r *Route) {
	f.q.Push(fanoutEntry{op: core.OpDelete, old: r})
	f.schedulePump()
}

// Flush pumps the queue synchronously (tests and shutdown).
func (f *Fanout) Flush() { f.q.PumpAll() }

// Lookup implements Stage, passing upstream to the decision process.
func (f *Fanout) Lookup(net netip.Prefix) *Route { return f.lookupParent(net) }
