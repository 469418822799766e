package rtrmgr

import (
	"net/netip"

	"xorp/internal/bgp"
	"xorp/internal/eventloop"
	"xorp/internal/rib"
	"xorp/internal/route"
	"xorp/internal/xif"
	"xorp/internal/xipc"
	"xorp/internal/xrl"
)

// The XRL client adapters wiring processes together across IPC: BGP's
// best routes to the RIB, the RIB's final routes to the FEA, and BGP's
// nexthop lookups to the RIB's register stage. These are the arrows of
// Figure 1 realized as XRLs through the typed xif stubs, so every hop in
// the Figures 10–12 latency path crosses the real IPC machinery.

// xrlRIBClient implements bgp.RIBClient over the typed xif.RIBClient
// stub. Every call issued within one event-loop drain (a full table load,
// a peer-down flush, a burst of decision-process output) joins one
// ordered pending queue, shipped at the end of the drain (or at
// ribBatchCap) as one add_routes4 or delete_routes4 list XRL per maximal
// run of the same protocol and kind. Replaces ride in the add runs, since
// the RIB's origin tables upsert. The runs go out in queue order, so the
// RIB sees the per-route order; a full-table event costs O(batches) of
// IPC, not O(routes). A withdrawal of a route the RIB does not hold is
// skipped, as delete_routes4 does, rather than reported to done.
type xrlRIBClient struct {
	stub *xif.RIBClient
	loop *eventloop.Loop

	pend        []pendingRIBOp
	flushQueued bool
}

// pendingRIBOp is one queued add (or replace) or delete, pre-encoded so
// no *bgp.Route is retained past the call.
type pendingRIBOp struct {
	del   bool
	proto string
	atom  xrl.Atom // a route atom for an add, a network for a delete
	done  func(error)
}

// ribBatchCap bounds the queue (and thus the list XRL size).
const ribBatchCap = 256

func protoName(r *bgp.Route) string {
	if r.Src != nil && r.Src.IBGP {
		return "ibgp"
	}
	return "ebgp"
}

func ribEntryOf(r *bgp.Route) route.Entry {
	e := route.Entry{Net: r.Net, Metric: r.IGPMetric}
	if r.Attrs.NextHop.IsValid() {
		e.NextHop = r.Attrs.NextHop
	}
	return e
}

// AddRoute implements bgp.RIBClient.
func (c *xrlRIBClient) AddRoute(r *bgp.Route, done func(error)) {
	c.enqueue(pendingRIBOp{proto: protoName(r), atom: xif.EncodeRouteAtom(ribEntryOf(r)), done: done})
}

// ReplaceRoute implements bgp.RIBClient. Protocol identity may change
// between old and new (ebgp vs ibgp winner): the RIB keys origin tables
// by protocol, so the old entry is withdrawn first when it moved.
func (c *xrlRIBClient) ReplaceRoute(old, new *bgp.Route, done func(error)) {
	if protoName(old) != protoName(new) {
		c.DeleteRoute(old, nil)
	}
	c.AddRoute(new, done)
}

// DeleteRoute implements bgp.RIBClient.
func (c *xrlRIBClient) DeleteRoute(r *bgp.Route, done func(error)) {
	c.enqueue(pendingRIBOp{del: true, proto: protoName(r), atom: xif.EncodeNetAtom(r.Net), done: done})
}

// enqueue appends op to the queue, flushing at the cap and otherwise at
// the end of the current drain.
func (c *xrlRIBClient) enqueue(op pendingRIBOp) {
	c.pend = append(c.pend, op)
	if len(c.pend) >= ribBatchCap {
		c.flush()
		return
	}
	if !c.flushQueued {
		c.flushQueued = true
		c.loop.Dispatch(c.flush)
	}
}

// flush ships the queue as one list XRL per maximal same-protocol,
// same-kind run, in order. The queue's array is reused by the next drain,
// since each XRL carries its own copy of the run's atoms; while the runs
// are sent, c.pend is nil, so an enqueue from inside a send starts a
// queue of its own.
func (c *xrlRIBClient) flush() {
	c.flushQueued = false
	pend := c.pend
	c.pend = nil
	for start := 0; start < len(pend); {
		end := start + 1
		for end < len(pend) && pend[end].proto == pend[start].proto && pend[end].del == pend[start].del {
			end++
		}
		run := pend[start:end]
		start = end
		items := make([]xrl.Atom, len(run))
		var dones []func(error)
		for i := range run {
			items[i] = run[i].atom
			if run[i].done != nil {
				dones = append(dones, run[i].done)
			}
		}
		done := func(err error) {
			for _, d := range dones {
				d(err)
			}
		}
		if run[0].del {
			c.stub.DeleteRoutes4Encoded(run[0].proto, items, done)
		} else {
			c.stub.AddRoutes4Encoded(run[0].proto, items, done)
		}
	}
	clear(pend) // drop the atoms and done callbacks
	if c.pend == nil {
		c.pend = pend[:0]
	}
}

// xrlMetricSource implements bgp.MetricSource over the rib/1.0
// register_interest4 stub; invalidations arrive via the BGP target's
// rib_client/0.1/route_info_invalid method, which calls Invalidate.
type xrlMetricSource struct {
	stub      *xif.RIBClient
	bgpTarget string
	watchers  []func(netip.Prefix)
}

// LookupNexthop implements bgp.MetricSource.
func (m *xrlMetricSource) LookupNexthop(nh netip.Addr, cb func(bgp.NexthopInfo)) {
	m.stub.RegisterInterest4(m.bgpTarget, nh, func(ans xif.RIBInterest, err *xrl.Error) {
		if err != nil {
			cb(bgp.NexthopInfo{})
			return
		}
		cb(bgp.NexthopInfo{
			Resolvable: ans.Resolves,
			Metric:     ans.Route.Metric,
			Covering:   ans.Covering,
		})
	})
}

// WatchInvalidation implements bgp.MetricSource.
func (m *xrlMetricSource) WatchInvalidation(fn func(netip.Prefix)) {
	m.watchers = append(m.watchers, fn)
}

// Invalidate fans an invalidation out to all resolver watchers; the BGP
// process's rib_client XRL handler calls this.
func (m *xrlMetricSource) Invalidate(net netip.Prefix) {
	for _, fn := range m.watchers {
		fn(net)
	}
}

// xrlFIBClient implements rib.FIBClient over the typed xif.FTIClient
// stub.
type xrlFIBClient struct {
	stub *xif.FTIClient
}

// FIBApplyBatch implements rib.FIBClient: the coalesced update set ships
// as runs of list-carrying XRLs (adds/replaces as add_entries4, deletes
// as delete_entries4) instead of one XRL per route; a batch of one is a
// one-item list.
//
// The atom lists are sized to the batch up front, one array per kind:
// each shipped run is a capped sub-slice the XRL keeps, and the next run
// of that kind fills the array after it.
func (c *xrlFIBClient) FIBApplyBatch(b *rib.FIBBatch) {
	var nAdds, nDels int
	b.Ops(func(op rib.FIBOp) {
		if op.Kind == rib.FIBOpDelete {
			nDels++
		} else {
			nAdds++
		}
	})
	adds := make([]xrl.Atom, 0, nAdds)
	dels := make([]xrl.Atom, 0, nDels)
	flushAdds := func() {
		if len(adds) > 0 {
			c.stub.AddEntries4Encoded(adds[:len(adds):len(adds)], nil)
			adds = adds[len(adds):]
		}
	}
	flushDels := func() {
		if len(dels) > 0 {
			c.stub.DeleteEntries4Encoded(dels[:len(dels):len(dels)], nil)
			dels = dels[len(dels):]
		}
	}
	b.Ops(func(op rib.FIBOp) {
		switch op.Kind {
		case rib.FIBOpAdd, rib.FIBOpReplace:
			flushDels()
			adds = append(adds, xif.EncodeRouteAtom(op.New))
		case rib.FIBOpDelete:
			flushAdds()
			dels = append(dels, xif.EncodeNetAtom(op.Old.Net))
		}
	})
	flushAdds()
	flushDels()
}

// directRedist adapts a BGP process as a rib.Redistributor (route
// redistribution into BGP, §3).
type directRedist struct {
	bgp *bgp.Process
}

// RedistAdd implements rib.Redistributor.
func (d directRedist) RedistAdd(e route.Entry) {
	nh := e.NextHop
	if !nh.IsValid() {
		nh = netip.AddrFrom4([4]byte{0, 0, 0, 0})
	}
	d.bgp.Loop().Dispatch(func() { d.bgp.Originate(e.Net, nh, e.Metric) })
}

// RedistDelete implements rib.Redistributor.
func (d directRedist) RedistDelete(e route.Entry) {
	d.bgp.Loop().Dispatch(func() { d.bgp.WithdrawOriginated(e.Net) })
}

var _ rib.Redistributor = directRedist{}

// Exported constructors so the standalone process binaries (cmd/xorp_rib,
// cmd/xorp_bgp) can wire the same XRL clients the router manager uses.

// NewXRLFIBClient returns a rib.FIBClient that sends fti/0.2 XRLs to
// feaTarget through router.
func NewXRLFIBClient(router *xipc.Router, feaTarget string) rib.FIBClient {
	return &xrlFIBClient{stub: xif.NewFTIClient(router, feaTarget)}
}

// NewXRLRIBClient returns a bgp.RIBClient that sends rib/1.0 XRLs to
// ribTarget through router.
func NewXRLRIBClient(router *xipc.Router, ribTarget string) bgp.RIBClient {
	return &xrlRIBClient{stub: xif.NewRIBClient(router, ribTarget), loop: router.Loop()}
}

// NewXRLMetricSource returns a bgp.MetricSource that registers interest
// with ribTarget; invalidations must be fed to the returned source's
// Invalidate method (the BGP process's rib_client XRL handler does this).
func NewXRLMetricSource(router *xipc.Router, ribTarget, bgpTarget string) bgp.MetricSource {
	return &xrlMetricSource{stub: xif.NewRIBClient(router, ribTarget), bgpTarget: bgpTarget}
}
