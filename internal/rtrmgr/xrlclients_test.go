package rtrmgr

import (
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"testing"

	"xorp/internal/bgp"
	"xorp/internal/eventloop"
	"xorp/internal/rib"
	"xorp/internal/route"
	"xorp/internal/workload"
	"xorp/internal/xif"
	"xorp/internal/xipc"
)

// recordingRIB is a rib/1.0 server that logs each route-carrying call
// and applies it to a real RIB process.
type recordingRIB struct {
	p     *rib.Process
	calls []string
}

func (s *recordingRIB) log(method string, proto route.Protocol, nets ...netip.Prefix) {
	parts := make([]string, len(nets))
	for i, n := range nets {
		parts[i] = n.String()
	}
	s.calls = append(s.calls, fmt.Sprintf("%s %v [%s]", method, proto, strings.Join(parts, " ")))
}

func (s *recordingRIB) AddRoute4(proto route.Protocol, e route.Entry) error {
	s.log("add_route4", proto, e.Net)
	return s.p.AddRoute(proto, e)
}

func (s *recordingRIB) ReplaceRoute4(proto route.Protocol, e route.Entry) error {
	s.log("replace_route4", proto, e.Net)
	return s.p.AddRoute(proto, e)
}

func (s *recordingRIB) DeleteRoute4(proto route.Protocol, net netip.Prefix) error {
	s.log("delete_route4", proto, net)
	return s.p.DeleteRoute(proto, net)
}

func (s *recordingRIB) AddRoutes4(proto route.Protocol, es []route.Entry) error {
	nets := make([]netip.Prefix, len(es))
	for i := range es {
		nets[i] = es[i].Net
	}
	s.log("add_routes4", proto, nets...)
	return s.p.AddRoutes(proto, es)
}

func (s *recordingRIB) DeleteRoutes4(proto route.Protocol, nets []netip.Prefix) error {
	s.log("delete_routes4", proto, nets...)
	return s.p.DeleteRoutes(proto, nets)
}

func (s *recordingRIB) RegisterInterest4(string, netip.Addr) (xif.RIBInterest, error) {
	return xif.RIBInterest{}, nil
}
func (s *recordingRIB) DeregisterInterest4(string, netip.Prefix) error { return nil }
func (s *recordingRIB) LookupRouteByDest4(netip.Addr) (xif.RIBLookup, error) {
	return xif.RIBLookup{}, nil
}
func (s *recordingRIB) ResyncComplete4(route.Protocol) (uint32, error) { return 0, nil }

// originState renders a RIB's BGP origin tables for comparison.
func originState(p *rib.Process) []string {
	var out []string
	for _, proto := range []route.Protocol{route.ProtoEBGP, route.ProtoIBGP} {
		p.Origin(proto).Walk(func(e route.Entry) bool {
			out = append(out, fmt.Sprintf("%v %v via %v metric %d", proto, e.Net, e.NextHop, e.Metric))
			return true
		})
	}
	return out
}

// TestRIBClientCoalescesInOrder issues, within one loop drain, add P,
// add R, delete P, add P′ (P again, new nexthop), an ebgp→ibgp replace
// of Q and a same-protocol replace of R. The coalescing client must ship
// them as one list XRL per same-protocol, same-kind run, in order, and
// leave the RIB in the state the per-route XRLs leave a second RIB in.
func TestRIBClientCoalescesInOrder(t *testing.T) {
	loop := eventloop.New(nil)
	xr := xipc.NewRouter("bgp_process", loop)
	rec := &recordingRIB{p: rib.NewProcess(loop, nil, nil)}
	target := xif.NewTarget("rib", "rib")
	xif.BindRIB(target, rec)
	xr.AddTarget(target)
	ref := rib.NewProcess(loop, nil, nil)
	refTarget := xif.NewTarget("rib_ref", "rib")
	ref.RegisterXRLs(refTarget)
	xr.AddTarget(refTarget)

	c := &xrlRIBClient{stub: xif.NewRIBClient(xr, "rib"), loop: loop}
	perRoute := xif.NewRIBClient(xr, "rib_ref")

	ebgp := &bgp.PeerHandle{Name: "e"}
	ibgp := &bgp.PeerHandle{Name: "i", IBGP: true}
	rt := func(net string, src *bgp.PeerHandle, nh string) *bgp.Route {
		return &bgp.Route{Net: mustP(net), Src: src, Attrs: &bgp.PathAttrs{NextHop: mustA(nh)}, IGPMetric: 7}
	}
	p := rt("20.1.0.0/16", ebgp, "10.0.0.1")
	p2 := rt("20.1.0.0/16", ebgp, "10.0.0.2")
	q := rt("20.2.0.0/16", ebgp, "10.0.0.1")
	q2 := rt("20.2.0.0/16", ibgp, "10.0.0.3")
	r := rt("20.3.0.0/16", ebgp, "10.0.0.1")
	r2 := rt("20.3.0.0/16", ebgp, "10.0.0.4")

	// Q is installed in an earlier drain.
	c.AddRoute(q, nil)
	perRoute.AddRoute4(protoName(q), ribEntryOf(q), nil)
	loop.RunPending()
	rec.calls = nil

	var errs []error
	done := func(err error) {
		if err != nil {
			errs = append(errs, err)
		}
	}
	loop.Dispatch(func() {
		c.AddRoute(p, done)
		c.AddRoute(r, done)
		c.DeleteRoute(p, done)
		c.AddRoute(p2, done)
		c.ReplaceRoute(q, q2, done)
		c.ReplaceRoute(r, r2, done)

		// The per-route order, as one XRL per call.
		perRoute.AddRoute4("ebgp", ribEntryOf(p), done)
		perRoute.AddRoute4("ebgp", ribEntryOf(r), done)
		perRoute.DeleteRoute4("ebgp", p.Net, done)
		perRoute.AddRoute4("ebgp", ribEntryOf(p2), done)
		perRoute.DeleteRoute4("ebgp", q.Net, done)
		perRoute.ReplaceRoute4("ibgp", ribEntryOf(q2), done)
		perRoute.ReplaceRoute4("ebgp", ribEntryOf(r2), done)
	})
	loop.RunPending()
	if len(errs) != 0 {
		t.Fatalf("XRL errors: %v", errs)
	}

	want := []string{
		"add_routes4 ebgp [20.1.0.0/16 20.3.0.0/16]",
		"delete_routes4 ebgp [20.1.0.0/16]",
		"add_routes4 ebgp [20.1.0.0/16]",
		"delete_routes4 ebgp [20.2.0.0/16]",
		"add_routes4 ibgp [20.2.0.0/16]",
		"add_routes4 ebgp [20.3.0.0/16]",
	}
	if !slices.Equal(rec.calls, want) {
		t.Fatalf("RIB received\n\t%s\nwant\n\t%s", strings.Join(rec.calls, "\n\t"), strings.Join(want, "\n\t"))
	}
	got, wantState := originState(rec.p), originState(ref)
	if !slices.Equal(got, wantState) {
		t.Fatalf("coalesced RIB state\n\t%s\nper-route RIB state\n\t%s",
			strings.Join(got, "\n\t"), strings.Join(wantState, "\n\t"))
	}
	if len(got) != 3 {
		t.Fatalf("RIB holds %d BGP routes, want 3: %v", len(got), got)
	}
}

// TestPeerDownFlushBatchesSnapshots removes a peer holding n routes from
// an assembled router and checks the FEA published O(n/256) forwarding
// snapshots for the flush, not one per route: the withdrawals cross
// BGP→RIB as delete_routes4 lists of up to ribBatchCap prefixes, and
// each becomes one FIB batch and one snapshot generation. (A session
// drop withdraws through BGP's background deletion stage instead, which
// yields to the loop every 64 routes and so ships 64-prefix lists.)
func TestPeerDownFlushBatchesSnapshots(t *testing.T) {
	const n = 3000
	r, err := NewRouter(baseConfig, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}

	nets := make([]netip.Prefix, n)
	for i := range nets {
		nets[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{20, byte(i >> 8), byte(i), 0}), 24)
	}
	for off := 0; off < n; off += 500 {
		u := &bgp.UpdateMsg{Attrs: workload.TestAttrs(mustA("10.0.0.1"), 65002), NLRI: nets[off : off+500]}
		r.BGP.Loop().Dispatch(func() { r.BGP.InjectUpdate("p1", u) })
	}
	fib := r.FEA.Snapshots()
	held := func() int {
		s, k := fib.Current(), 0
		for _, net := range nets {
			if _, ok := s.Get(net); ok {
				k++
			}
		}
		return k
	}
	waitCond(t, "all routes in FIB", func() bool { return held() == n })

	gen0 := fib.Current().Gen()
	r.BGP.Loop().DispatchAndWait(func() {
		if err := r.BGP.RemovePeer("p1"); err != nil {
			t.Error(err)
		}
	})
	waitCond(t, "all routes flushed from FIB", func() bool { return held() == 0 })
	// Let any trailing batch land before reading the generation.
	r.RIB.Loop().DispatchAndWait(func() {})
	r.FEA.Loop().DispatchAndWait(func() {})

	gens := fib.Current().Gen() - gen0
	limit := uint64((n+ribBatchCap-1)/ribBatchCap) + 4
	t.Logf("flush of %d routes published %d snapshot generations", n, gens)
	if gens > limit {
		t.Fatalf("flush of %d routes published %d snapshot generations, want <= %d", n, gens, limit)
	}
}
