package main

import (
	"fmt"
	"net/netip"
	"os"
	"path/filepath"

	"xorp/internal/bgp"
	"xorp/internal/eventloop"
	"xorp/internal/fwd"
	"xorp/internal/rib"
	"xorp/internal/route"
	"xorp/internal/rtrmgr"
	"xorp/internal/xif"
	"xorp/internal/xipc"
	"xorp/internal/xrl"
)

// The layer-by-layer replay: the seed's full table is announced and then
// withdrawn one layer at a time, each layer fed what the layer above it
// emitted, through that layer's public entry point:
//
//	bgp.DecodeMessage            the generator's UPDATE bytes
//	bgp.Process.InjectUpdate     decoded UPDATEs, into a recording RIBClient
//	xif RIB client stub          what BGP emitted, over an xipc.Router whose
//	                             rib target is local (the intra path) and
//	                             records what it receives
//	rib.Process                  what the target received, into a recording
//	                             FIBClient
//	fea.Process.ApplyBatch       the recorded FIB batches, on an assembled
//	                             router's FEA
//	fwd.Publisher.Apply          the same batches, on a bare publisher
//
// Every call is a span; the recording clients are child spans, so a
// layer's self time excludes the recording. A batch id follows one BGP
// drain through every layer. The route-server stages and the XRL TCP path
// are replayed the same way on their own inputs.

// replayDrain is how many UPDATEs the BGP replay injects per loop drain:
// the assembled router's BGP-to-RIB client ships at most this many adds
// per XRL (rtrmgr's ribAddBatchCap), and a drain that reaches it flushes.
const replayDrain = 256

const (
	opAdd = iota
	opReplace
	opDelete
)

// ribCall is one route handed across a layer boundary.
type ribCall struct {
	kind  int
	batch int32
	proto string
	entry route.Entry
}

// bgpRecorder is the recording bgp.RIBClient.
type bgpRecorder struct {
	log   *spanLog
	batch int32
	calls []ribCall
}

func protoOf(r *bgp.Route) string {
	if r.Src != nil && r.Src.IBGP {
		return "ibgp"
	}
	return "ebgp"
}

func (c *bgpRecorder) record(kind int, r *bgp.Route, done func(error)) {
	c.log.call("bgp.in.ribclient", c.batch, func() {
		c.calls = append(c.calls, ribCall{kind: kind, batch: c.batch, proto: protoOf(r),
			entry: route.Entry{Net: r.Net, Metric: r.IGPMetric, NextHop: r.Attrs.NextHop}})
	})
	if done != nil {
		done(nil)
	}
}

func (c *bgpRecorder) AddRoute(r *bgp.Route, done func(error)) { c.record(opAdd, r, done) }
func (c *bgpRecorder) ReplaceRoute(_, new *bgp.Route, done func(error)) {
	c.record(opReplace, new, done)
}
func (c *bgpRecorder) DeleteRoute(r *bgp.Route, done func(error)) { c.record(opDelete, r, done) }

// ribServerCall is one rib/1.0 call as the RIB's XRL target received it.
type ribServerCall struct {
	method  string
	batch   int32
	proto   route.Protocol
	entries []route.Entry
	nets    []netip.Prefix
}

// ribTargetRecorder is the recording xif.RIBServer.
type ribTargetRecorder struct {
	log   *spanLog
	batch int32
	calls []ribServerCall
}

func (s *ribTargetRecorder) rec(c ribServerCall) error {
	c.batch = s.batch
	s.log.call("xipc.ribtarget", s.batch, func() { s.calls = append(s.calls, c) })
	return nil
}

func (s *ribTargetRecorder) AddRoute4(p route.Protocol, e route.Entry) error {
	return s.rec(ribServerCall{method: "add", proto: p, entries: []route.Entry{e}})
}
func (s *ribTargetRecorder) ReplaceRoute4(p route.Protocol, e route.Entry) error {
	return s.rec(ribServerCall{method: "add", proto: p, entries: []route.Entry{e}})
}
func (s *ribTargetRecorder) DeleteRoute4(p route.Protocol, n netip.Prefix) error {
	return s.rec(ribServerCall{method: "delete", proto: p, nets: []netip.Prefix{n}})
}
func (s *ribTargetRecorder) AddRoutes4(p route.Protocol, es []route.Entry) error {
	return s.rec(ribServerCall{method: "adds", proto: p, entries: append([]route.Entry(nil), es...)})
}
func (s *ribTargetRecorder) DeleteRoutes4(p route.Protocol, ns []netip.Prefix) error {
	return s.rec(ribServerCall{method: "deletes", proto: p, nets: append([]netip.Prefix(nil), ns...)})
}
func (s *ribTargetRecorder) RegisterInterest4(string, netip.Addr) (xif.RIBInterest, error) {
	return xif.RIBInterest{}, fmt.Errorf("replay: not recorded")
}
func (s *ribTargetRecorder) DeregisterInterest4(string, netip.Prefix) error { return nil }
func (s *ribTargetRecorder) LookupRouteByDest4(netip.Addr) (xif.RIBLookup, error) {
	return xif.RIBLookup{}, fmt.Errorf("replay: not recorded")
}
func (s *ribTargetRecorder) ResyncComplete4(route.Protocol) (uint32, error) { return 0, nil }

// fibBatch is one recorded FIB transaction.
type fibBatch struct {
	batch int32
	ops   []rib.FIBOp
}

// fibRecorder is the recording rib.FIBClient and rib.FIBBatchClient.
type fibRecorder struct {
	log     *spanLog
	batch   int32
	batches []fibBatch
}

func (f *fibRecorder) add(ops ...rib.FIBOp) {
	f.log.call("rib.fibclient", f.batch, func() {
		f.batches = append(f.batches, fibBatch{batch: f.batch, ops: ops})
	})
}

func (f *fibRecorder) FIBAdd(e route.Entry) { f.add(rib.FIBOp{Kind: rib.FIBOpAdd, New: e}) }
func (f *fibRecorder) FIBReplace(old, new route.Entry) {
	f.add(rib.FIBOp{Kind: rib.FIBOpReplace, Old: old, New: new})
}
func (f *fibRecorder) FIBDelete(e route.Entry) { f.add(rib.FIBOp{Kind: rib.FIBOpDelete, Old: e}) }
func (f *fibRecorder) FIBApplyBatch(b *rib.FIBBatch) {
	var ops []rib.FIBOp
	b.Ops(func(op rib.FIBOp) { ops = append(ops, op) })
	f.add(ops...)
}

func (b fibBatch) build() *rib.FIBBatch {
	fb := rib.NewFIBBatch()
	for _, op := range b.ops {
		switch op.Kind {
		case rib.FIBOpAdd:
			fb.Add(op.New)
		case rib.FIBOpReplace:
			fb.Replace(op.Old, op.New)
		case rib.FIBOpDelete:
			fb.Delete(op.Old)
		}
	}
	return fb
}

// replaySpans is the preallocated span count: about thirteen spans per route
// of a full-table announce and withdraw.
func replaySpans(routes int) int { return 14*routes + 1<<16 }

// replayLayers runs the layer replay on the seed's table and returns the
// per-layer metrics. Checks on what crossed each boundary count in res.
func replayLayers(seed int64, routes int, res *result, spanFile string) (map[string]float64, error) {
	tbl := genTable(seed, routes)
	log := newSpanLog(replaySpans(routes))
	out := map[string]float64{}
	n := len(tbl.routes)
	ops := int64(2 * n) // every route announced once and withdrawn once

	// Wire: one announcement and one withdrawal message per route.
	var wire [][]byte
	for i := range tbl.routes {
		r := &tbl.routes[i]
		wire = append(wire, appendUpdate(nil, nil, r, r.nlri()))
	}
	for i := range tbl.routes {
		wire = append(wire, appendUpdate(nil, tbl.routes[i].nlri(), nil, nil))
	}

	// bgp.DecodeMessage.
	updates := make([]*bgp.UpdateMsg, len(wire))
	bad := int64(0)
	for i, msg := range wire {
		var m *bgp.Message
		var err error
		log.call("bgp.decode", int32(i/replayDrain), func() { m, err = bgp.DecodeMessage(msg) })
		if err != nil || m.Update == nil {
			bad++
			continue
		}
		updates[i] = m.Update
	}
	res.count(int64(len(wire)), bad, "replay: %d UPDATEs failed to decode", bad)
	if bad > 0 {
		return nil, nil
	}

	// bgp.Process.InjectUpdate, draining the loop every replayDrain.
	bloop := eventloop.New(nil)
	brec := &bgpRecorder{log: log}
	proc := bgp.NewProcess(bloop, bgp.Config{AS: localAS, BGPID: netip.MustParseAddr("10.255.0.1")}, brec, nil)
	if _, err := proc.AddPeer(bgp.PeerConfig{Name: "feed", LocalAddr: netip.MustParseAddr("127.0.0.1"),
		PeerAddr: feedAddr, PeerAS: feedAS, Passive: true}); err != nil {
		return nil, err
	}
	for off := 0; off < len(updates); off += replayDrain {
		b := int32(off / replayDrain)
		brec.batch = b
		for _, u := range updates[off:min(off+replayDrain, len(updates))] {
			var err error
			log.call("bgp.in", b, func() { err = proc.InjectUpdate("feed", u) })
			if err != nil {
				return nil, err
			}
		}
		log.call("bgp.in", b, func() { bloop.RunPending() })
	}
	adds, dels := 0, 0
	for _, c := range brec.calls {
		switch c.kind {
		case opAdd:
			adds++
		case opDelete:
			dels++
		}
	}
	bad = int64(abs(adds-n) + abs(dels-n))
	res.count(ops, bad, "replay: BGP emitted %d adds and %d deletes for %d routes", adds, dels, n)

	// xif RIB stub over a local target, shipping BGP's output as the
	// assembled router's client does: a drain's consecutive adds as
	// add_routes4 lists of at most replayDrain routes, every replace and
	// delete as its own XRL.
	xloop := eventloop.New(nil)
	xr := xipc.NewRouter("replay_bgp", xloop)
	trec := &ribTargetRecorder{log: log}
	target := xif.NewTarget("rib", "rib")
	xif.BindRIB(target, trec)
	xr.AddTarget(target)
	stub := xif.NewRIBClient(xr, "rib")
	xrls := 0
	send := func(b int32, fn func()) {
		trec.batch = b
		xrls++
		log.call("xipc.hop", b, func() {
			fn()
			xloop.RunPending()
		})
	}
	var pend []xrl.Atom
	var pendProto string
	var pendBatch int32
	flush := func() {
		if len(pend) == 0 {
			return
		}
		items, proto := pend, pendProto
		pend = nil
		send(pendBatch, func() { stub.AddRoutes4Encoded(proto, items, nil) })
	}
	for _, c := range brec.calls {
		if c.batch != pendBatch || (len(pend) > 0 && c.proto != pendProto) || len(pend) == replayDrain {
			flush()
		}
		switch c.kind {
		case opAdd:
			log.call("xipc.hop", c.batch, func() { pend = append(pend, xif.EncodeRouteAtom(c.entry)) })
			pendProto, pendBatch = c.proto, c.batch
		case opReplace:
			flush()
			send(c.batch, func() { stub.ReplaceRoute4(c.proto, c.entry, nil) })
		case opDelete:
			flush()
			send(c.batch, func() { stub.DeleteRoute4(c.proto, c.entry.Net, nil) })
		}
	}
	flush()
	got := 0
	for _, c := range trec.calls {
		got += len(c.entries) + len(c.nets)
	}
	res.count(ops, int64(abs(got-2*n)), "replay: the RIB target received %d of %d routes", got, 2*n)

	// rib.Process, configured with the router's connected and static
	// routes so BGP nexthops resolve, draining once per batch.
	rloop := eventloop.New(nil)
	frec := &fibRecorder{log: log}
	rp := rib.NewProcess(rloop, frec, nil)
	rp.AddRoute(route.ProtoConnected, route.Entry{Net: netip.MustParsePrefix("10.255.0.0/24"), IfName: "eth0"})
	for nh, gw := range gateways {
		rp.AddRoute(route.ProtoStatic, route.Entry{Net: netip.PrefixFrom(nh, 24).Masked(), NextHop: gw})
	}
	rloop.RunPending()
	frec.batches = nil
	ribErrs := int64(0)
	for i, c := range trec.calls {
		frec.batch = c.batch
		var err error
		log.call("rib", c.batch, func() {
			switch c.method {
			case "adds":
				err = rp.AddRoutes(c.proto, c.entries)
			case "add":
				err = rp.AddRoute(c.proto, c.entries[0])
			case "delete":
				err = rp.DeleteRoute(c.proto, c.nets[0])
			case "deletes":
				err = rp.DeleteRoutes(c.proto, c.nets)
			}
		})
		if err != nil {
			ribErrs++
		}
		if i+1 == len(trec.calls) || trec.calls[i+1].batch != c.batch {
			log.call("rib", c.batch, func() { rloop.RunPending() })
		}
	}
	res.count(int64(len(trec.calls)), ribErrs, "replay: %d RIB calls failed", ribErrs)
	fibOps, addEnd := 0, 0
	for i, b := range frec.batches {
		fibOps += len(b.ops)
		for _, op := range b.ops {
			if op.Kind == rib.FIBOpAdd {
				addEnd = i + 1
			}
		}
	}

	// fea.Process.ApplyBatch on an assembled router's FEA, on its loop.
	fr, err := rtrmgr.NewRouter(feaConfig, rtrmgr.Options{})
	if err != nil {
		return nil, err
	}
	batches := make([]*rib.FIBBatch, len(frec.batches))
	for i, b := range frec.batches {
		batches[i] = b.build()
	}
	var feaLens [2]int
	feaErrs := int64(0)
	fr.FEA.Loop().DispatchAndWait(func() {
		for i, b := range batches {
			var err error
			log.call("fea", frec.batches[i].batch, func() { err = fr.FEA.ApplyBatch(b) })
			if err != nil {
				feaErrs++
			}
			if i+1 == addEnd {
				feaLens[0] = fr.FEA.Snapshots().Current().Len()
			}
		}
		feaLens[1] = fr.FEA.Snapshots().Current().Len()
	})
	fr.Stop()
	res.count(int64(len(batches)), feaErrs, "replay: %d FEA batches failed", feaErrs)
	res.count(ops, int64(abs(feaLens[0]-baseRoutes-n)+abs(feaLens[1]-baseRoutes)),
		"replay: FEA snapshot held %d then %d entries, want %d then %d", feaLens[0], feaLens[1], baseRoutes+n, baseRoutes)

	// fwd.Publisher.Apply on a bare publisher.
	pub := fwd.NewPublisher()
	var pubLens [2]int
	for i, b := range batches {
		log.call("fwd.publish", frec.batches[i].batch, func() { pub.Apply(b) })
		if i+1 == addEnd {
			pubLens[0] = pub.Current().Len()
		}
	}
	pubLens[1] = pub.Current().Len()
	res.count(ops, int64(abs(pubLens[0]-n)+abs(pubLens[1])),
		"replay: publisher held %d then %d entries, want %d then 0", pubLens[0], pubLens[1], n)

	st := log.stats()
	perOp := func(name string, denom int64) (ns, allocs float64) {
		s := st[name]
		if s == nil || denom == 0 {
			return 0, 0
		}
		return float64(s.selfNs) / float64(denom), float64(s.selfMallocs) / float64(denom)
	}
	out["bgp.decode_ns_per_route"], _ = perOp("bgp.decode", ops)
	out["bgp.in_ns_per_route"], out["bgp.in_allocs_per_route"] = perOp("bgp.in", ops)
	out["xipc.hop_ns_per_route"], _ = perOp("xipc.hop", ops)
	out["xipc.routes_per_xrl"] = float64(ops) / float64(xrls)
	out["rib.ns_per_route"], out["rib.allocs_per_route"] = perOp("rib", ops)
	out["rib.fib_ops_per_route"] = float64(fibOps) / float64(ops)
	out["rib.routes_per_fib_batch"] = float64(ops) / float64(len(frec.batches))
	out["fea.ns_per_op"], out["fea.allocs_per_op"] = perOp("fea", int64(fibOps))
	out["fwd.publish_ns_per_op"], out["fwd.publish_allocs_per_op"] = perOp("fwd.publish", int64(fibOps))
	out["fwd.ops_per_publish"] = float64(fibOps) / float64(len(batches))

	if err := replayRouteServer(seed, log, res, out); err != nil {
		return nil, err
	}
	if err := replayXRL(seed, res, out); err != nil {
		return nil, err
	}
	if spanFile != "" {
		if err := os.MkdirAll(filepath.Dir(spanFile), 0o755); err != nil {
			return nil, err
		}
		if err := log.write(spanFile); err != nil {
			return nil, err
		}
		res.note("trace: %d spans written to %s", len(log.spans), spanFile)
	}
	return out, nil
}

// feaConfig assembles a router with no protocols: just the FEA (and RIB)
// with the benchmark router's interfaces and static routes.
const feaConfig = `
interfaces {
    eth0 { address 10.255.0.1/24; }
}
static {
    route 10.1.0.0/24 next-hop 10.255.0.11;
    route 10.1.1.0/24 next-hop 10.255.0.12;
    route 10.1.2.0/24 next-hop 10.255.0.13;
}
`

// rsReplay is the route-server shape replayed for the BGP output layer.
var rsReplay = rsConfig{peers: 100, perPeer: 256, perMsg: 64, attrSets: 16}

// replayRouteServer announces and withdraws the route-server feeds once
// untraced (to grow pools and buffers) and once traced. Each UPDATE's
// PeerIn.ReceiveUpdate is a bgp.rs.in span; the loop drain that follows,
// where the fanout drives the shared export filter and GroupOut encodes
// and fans out to the members, is the bgp.out span.
func replayRouteServer(seed int64, log *spanLog, res *result, out map[string]float64) error {
	cfg := rsReplay
	feeds := genRSFeeds(cfg, seed)
	b, err := buildRouteServer(cfg)
	if err != nil {
		return err
	}
	total := cfg.peers * cfg.perPeer
	var enc0 int
	var bytes0 int64
	for round := 0; round < 2; round++ {
		traced := round == 1
		if traced {
			enc0, bytes0 = b.group.EncodeCalls, b.group.SentBytes
		}
		for phase, msgs := range [][][]*bgp.UpdateMsg{feeds.announce, feeds.withdraw} {
			for i := 0; ; i++ {
				sent := false
				for p, feed := range msgs {
					if i >= len(feed) {
						continue
					}
					sent = true
					if !traced {
						b.members[p].in.ReceiveUpdate(feed[i], rsLocalAS)
						b.loop.RunPending()
						continue
					}
					batch := int32(i*cfg.peers + p)
					log.call("bgp.rs.in", batch, func() { b.members[p].in.ReceiveUpdate(feed[i], rsLocalAS) })
					log.call("bgp.out", batch, func() { b.loop.RunPending() })
				}
				if !sent {
					break
				}
			}
			want := func(*rsMember) int { return total - cfg.perPeer }
			if phase == 1 {
				want = func(*rsMember) int { return 0 }
			}
			if !b.check(res, []string{"announce", "withdraw"}[phase], want) {
				return nil
			}
		}
	}
	changes := float64(2 * total)
	s := log.stats()["bgp.out"]
	out["bgp.out_ns_per_route"] = float64(s.selfNs) / changes
	out["bgp.out_allocs_per_route"] = float64(s.selfMallocs) / changes
	out["bgp.out_encodes_per_route"] = float64(b.group.EncodeCalls-enc0) / changes
	out["bgp.out_bytes_per_route"] = float64(b.group.SentBytes-bytes0) / changes
	return nil
}

// replayXRL runs the xrl workload's parties for a second and counts heap
// allocations (the whole process, sender and receiver) and transport
// syscalls per call. The calls are pipelined, so they are counted in
// total rather than per span.
func replayXRL(seed int64, res *result, out map[string]float64) error {
	r, err := measureXRL(xrlConfig{args: xrlFull.args, window: xrlFull.window, setups: 1}, seed, 1, nil)
	if err != nil {
		return err
	}
	res.count(int64(r.calls), int64(r.errs), "replay: %d of %d XRLs failed", r.errs, r.calls)
	out["xrl.allocs_per_call"] = float64(r.mallocs) / float64(r.calls)
	out["xipc.syscalls_per_call"] = float64(r.syscalls) / float64(r.calls)
	return nil
}

func abs(x int) int { return max(x, -x) }
