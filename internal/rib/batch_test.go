package rib

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"xorp/internal/eventloop"
	"xorp/internal/route"
)

// streamRec records the exact downstream Add/Replace/Delete stream a
// FIBClient sees, flattening each shipped batch into its ops, so the
// batch path's stream is directly comparable to the single-route path's
// batches of one.
type streamRec struct {
	ops []string
}

func (r *streamRec) FIBApplyBatch(b *FIBBatch) {
	b.Ops(func(op FIBOp) {
		switch e := op.New; op.Kind {
		case FIBOpAdd:
			r.ops = append(r.ops, fmt.Sprintf("add %v %v %s %d %v", e.Net, e.NextHop, e.IfName, e.Metric, e.Protocol))
		case FIBOpReplace:
			r.ops = append(r.ops, fmt.Sprintf("replace %v->%v %v %s %d %v", op.Old.NextHop, e.NextHop, e.Net, e.IfName, e.Metric, e.Protocol))
		case FIBOpDelete:
			r.ops = append(r.ops, fmt.Sprintf("delete %v %v", op.Old.Net, op.Old.Protocol))
		}
	})
}

// batchOp is one scripted operation for the equivalence tests.
type batchOp struct {
	del   bool
	proto route.Protocol
	e     route.Entry
}

// runScript drives ops through a fresh RIB either per-route or batched
// (consecutive same-proto same-kind runs), returning the FIB stream.
func runScript(t *testing.T, ops []batchOp, batched bool) []string {
	t.Helper()
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	rec := &streamRec{}
	p := NewProcess(loop, rec, nil)
	apply := func(fn func()) {
		loop.Dispatch(fn)
		loop.RunPending()
	}
	if !batched {
		for _, op := range ops {
			op := op
			apply(func() {
				if op.del {
					p.DeleteRoute(op.proto, op.e.Net)
				} else {
					p.AddRoute(op.proto, op.e)
				}
			})
		}
		return rec.ops
	}
	for start := 0; start < len(ops); {
		end := start + 1
		for end < len(ops) && ops[end].proto == ops[start].proto && ops[end].del == ops[start].del {
			end++
		}
		run := ops[start:end]
		start = end
		apply(func() {
			if run[0].del {
				nets := make([]netip.Prefix, len(run))
				for i := range run {
					nets[i] = run[i].e.Net
				}
				p.DeleteRoutes(run[0].proto, nets)
			} else {
				es := make([]route.Entry, len(run))
				for i := range run {
					es[i] = run[i].e
				}
				p.AddRoutes(run[0].proto, es)
			}
		})
	}
	return rec.ops
}

func checkSameStream(t *testing.T, ops []batchOp) {
	t.Helper()
	single := runScript(t, ops, false)
	batch := runScript(t, ops, true)
	if len(single) != len(batch) {
		t.Fatalf("stream lengths differ: single %d, batch %d\nsingle: %v\nbatch: %v",
			len(single), len(batch), single, batch)
	}
	for i := range single {
		if single[i] != batch[i] {
			t.Fatalf("stream diverges at %d:\nsingle: %s\nbatch:  %s", i, single[i], batch[i])
		}
	}
}

// TestBatchMatchesSingleBasic covers the plain load case: many EBGP
// routes resolving through a static cover, plus IGP routes, duplicates
// (replace), metric changes and interleaved deletes.
func TestBatchMatchesSingleBasic(t *testing.T) {
	nh := mustA("172.16.0.9")
	var ops []batchOp
	ops = append(ops, batchOp{proto: route.ProtoStatic, e: route.Entry{
		Net: mustP("172.16.0.0/12"), NextHop: mustA("192.168.1.254"), IfName: "eth0"}})
	for i := 0; i < 40; i++ {
		net := netip.PrefixFrom(netip.AddrFrom4([4]byte{20, byte(i), 0, 0}), 16)
		ops = append(ops, batchOp{proto: route.ProtoEBGP, e: route.Entry{Net: net, NextHop: nh}})
	}
	// Duplicate adds: some identical (no emission), some with new metric
	// (replace).
	for i := 0; i < 40; i += 2 {
		net := netip.PrefixFrom(netip.AddrFrom4([4]byte{20, byte(i), 0, 0}), 16)
		e := route.Entry{Net: net, NextHop: nh}
		if i%4 == 0 {
			e.Metric = 7
		}
		ops = append(ops, batchOp{proto: route.ProtoEBGP, e: e})
	}
	// RIP routes over part of the same space (merge arbitration).
	for i := 0; i < 10; i++ {
		net := netip.PrefixFrom(netip.AddrFrom4([4]byte{20, byte(i), 0, 0}), 16)
		ops = append(ops, batchOp{proto: route.ProtoRIP, e: route.Entry{
			Net: net, NextHop: mustA("10.0.0.2"), IfName: "eth1", Metric: 3}})
	}
	// Delete a stretch of the EBGP routes.
	for i := 5; i < 25; i++ {
		net := netip.PrefixFrom(netip.AddrFrom4([4]byte{20, byte(i), 0, 0}), 16)
		ops = append(ops, batchOp{del: true, proto: route.ProtoEBGP, e: route.Entry{Net: net}})
	}
	checkSameStream(t, ops)
}

// TestBatchMatchesSingleResolution exercises the extint nexthop cache:
// internal routes arriving after external ones re-resolve them, and the
// batch path must emit the identical re-announcement stream.
func TestBatchMatchesSingleResolution(t *testing.T) {
	var ops []batchOp
	// External routes first: unresolvable until an IGP path appears.
	for i := 0; i < 12; i++ {
		net := netip.PrefixFrom(netip.AddrFrom4([4]byte{30, byte(i), 0, 0}), 16)
		ops = append(ops, batchOp{proto: route.ProtoIBGP, e: route.Entry{
			Net: net, NextHop: mustA("10.9.9.9")}})
	}
	// The IGP route that makes them resolvable, then one that changes the
	// resolution (more specific cover).
	ops = append(ops,
		batchOp{proto: route.ProtoRIP, e: route.Entry{
			Net: mustP("10.9.0.0/16"), NextHop: mustA("10.0.0.7"), IfName: "eth2", Metric: 2}},
		batchOp{proto: route.ProtoRIP, e: route.Entry{
			Net: mustP("10.9.9.0/24"), NextHop: mustA("10.0.0.8"), IfName: "eth3", Metric: 1}},
	)
	// Withdraw the specific cover: resolution falls back.
	ops = append(ops, batchOp{del: true, proto: route.ProtoRIP, e: route.Entry{Net: mustP("10.9.9.0/24")}})
	checkSameStream(t, ops)
}

// TestBatchMatchesSingleRandom drives randomized scripts through both
// paths — the property-test version of the oracle.
func TestBatchMatchesSingleRandom(t *testing.T) {
	protos := []route.Protocol{route.ProtoStatic, route.ProtoRIP, route.ProtoOSPF, route.ProtoEBGP, route.ProtoIBGP}
	for trial := 0; trial < 10; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		var ops []batchOp
		ops = append(ops, batchOp{proto: route.ProtoStatic, e: route.Entry{
			Net: mustP("10.0.0.0/8"), NextHop: mustA("192.168.1.254"), IfName: "eth0"}})
		for i := 0; i < 150; i++ {
			net := netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(20 + r.Intn(4)), byte(r.Intn(8)), 0, 0}), 16)
			proto := protos[r.Intn(len(protos))]
			if r.Intn(4) == 0 {
				ops = append(ops, batchOp{del: true, proto: proto, e: route.Entry{Net: net}})
				continue
			}
			e := route.Entry{Net: net, Metric: uint32(r.Intn(3))}
			switch r.Intn(3) {
			case 0:
				e.NextHop = mustA("10.0.0.9") // resolvable via the static /8
			case 1:
				e.NextHop = mustA("172.31.0.9") // unresolvable
			default:
				e.IfName = "eth1" // concrete
			}
			ops = append(ops, batchOp{proto: proto, e: e})
		}
		checkSameStream(t, ops)
	}
}

// TestDeleteAllBatchStream verifies DeleteAll's chunked runs produce the
// plain per-route delete stream.
func TestDeleteAllBatchStream(t *testing.T) {
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	rec := &streamRec{}
	p := NewProcess(loop, rec, nil)
	loop.Dispatch(func() {
		for i := 0; i < 200; i++ {
			p.AddRoute(route.ProtoRIP, route.Entry{
				Net:     netip.PrefixFrom(netip.AddrFrom4([4]byte{40, byte(i), 0, 0}), 16),
				NextHop: mustA("10.0.0.2"), IfName: "eth1",
			})
		}
	})
	loop.RunPending()
	n := len(rec.ops)
	if n != 200 {
		t.Fatalf("expected 200 adds, streamed %d", n)
	}
	loop.Dispatch(func() { p.Origin(route.ProtoRIP).DeleteAll() })
	loop.RunPending()
	if len(rec.ops) != 400 {
		t.Fatalf("expected 200 deletes, streamed %d ops total", len(rec.ops))
	}
	for _, op := range rec.ops[200:] {
		if op[:6] != "delete" {
			t.Fatalf("non-delete op in DeleteAll stream: %s", op)
		}
	}
	if p.Len() != 0 {
		t.Fatalf("%d routes left", p.Len())
	}
}

// ---------------------------------------------------------------------
// FIBBatch folding.
// ---------------------------------------------------------------------

func fe(s string, nh string) route.Entry {
	e := route.Entry{Net: mustP(s)}
	if nh != "" {
		e.NextHop = mustA(nh)
	}
	return e
}

func collectOps(b *FIBBatch) []string {
	var out []string
	b.Ops(func(op FIBOp) {
		switch op.Kind {
		case FIBOpAdd:
			out = append(out, "add "+op.New.Net.String()+" "+op.New.NextHop.String())
		case FIBOpReplace:
			out = append(out, "replace "+op.New.Net.String()+" "+op.New.NextHop.String())
		case FIBOpDelete:
			out = append(out, "delete "+op.Old.Net.String())
		}
	})
	return out
}

func TestFIBBatchFolding(t *testing.T) {
	cases := []struct {
		name string
		fill func(b *FIBBatch)
		want []string
	}{
		{"add-delete cancels", func(b *FIBBatch) {
			b.Add(fe("10.0.0.0/8", "1.1.1.1"))
			b.Delete(fe("10.0.0.0/8", "1.1.1.1"))
		}, nil},
		{"add-replace folds to add", func(b *FIBBatch) {
			b.Add(fe("10.0.0.0/8", "1.1.1.1"))
			b.Replace(fe("10.0.0.0/8", "1.1.1.1"), fe("10.0.0.0/8", "2.2.2.2"))
		}, []string{"add 10.0.0.0/8 2.2.2.2"}},
		{"replace-replace chains", func(b *FIBBatch) {
			b.Replace(fe("10.0.0.0/8", "1.1.1.1"), fe("10.0.0.0/8", "2.2.2.2"))
			b.Replace(fe("10.0.0.0/8", "2.2.2.2"), fe("10.0.0.0/8", "3.3.3.3"))
		}, []string{"replace 10.0.0.0/8 3.3.3.3"}},
		{"replace-delete folds to delete", func(b *FIBBatch) {
			b.Replace(fe("10.0.0.0/8", "1.1.1.1"), fe("10.0.0.0/8", "2.2.2.2"))
			b.Delete(fe("10.0.0.0/8", "2.2.2.2"))
		}, []string{"delete 10.0.0.0/8"}},
		{"delete-add folds to replace", func(b *FIBBatch) {
			b.Delete(fe("10.0.0.0/8", "1.1.1.1"))
			b.Add(fe("10.0.0.0/8", "2.2.2.2"))
		}, []string{"replace 10.0.0.0/8 2.2.2.2"}},
		{"cancel then fresh add reuses the slot", func(b *FIBBatch) {
			b.Add(fe("10.0.0.0/8", "1.1.1.1"))
			b.Delete(fe("10.0.0.0/8", "1.1.1.1"))
			b.Add(fe("10.0.0.0/8", "3.3.3.3"))
		}, []string{"add 10.0.0.0/8 3.3.3.3"}},
		{"distinct prefixes keep first-touch order", func(b *FIBBatch) {
			b.Add(fe("10.0.0.0/8", "1.1.1.1"))
			b.Add(fe("20.0.0.0/8", "1.1.1.1"))
			b.Delete(fe("30.0.0.0/8", ""))
			b.Replace(fe("20.0.0.0/8", "1.1.1.1"), fe("20.0.0.0/8", "4.4.4.4"))
		}, []string{"add 10.0.0.0/8 1.1.1.1", "add 20.0.0.0/8 4.4.4.4", "delete 30.0.0.0/8"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := NewFIBBatch()
			c.fill(b)
			got := collectOps(b)
			if len(got) != len(c.want) {
				t.Fatalf("ops = %v, want %v", got, c.want)
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Fatalf("ops = %v, want %v", got, c.want)
				}
			}
			if b.Len() != len(c.want) {
				t.Fatalf("Len = %d, want %d", b.Len(), len(c.want))
			}
			b.Reset()
			if b.Len() != 0 {
				t.Fatal("Reset left ops behind")
			}
		})
	}
}

// TestFIBBatchNetEffect checks, against a model FIB, that applying the
// coalesced batch yields the same final table as applying the raw op
// stream — under random op sequences.
func TestFIBBatchNetEffect(t *testing.T) {
	type fibModel map[netip.Prefix]route.Entry
	apply := func(m fibModel, kind FIBOpKind, old, new route.Entry) {
		switch kind {
		case FIBOpAdd, FIBOpReplace:
			m[new.Net] = new
		case FIBOpDelete:
			delete(m, old.Net)
		}
	}
	for trial := 0; trial < 30; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		raw := fibModel{}     // raw stream applied directly
		batched := fibModel{} // coalesced batch applied after
		b := NewFIBBatch()
		// shadow tracks what the RIB would currently announce so the
		// generated op stream is well-formed (adds for absent prefixes,
		// replaces/deletes for present ones).
		shadow := fibModel{}
		for i := 0; i < 60; i++ {
			net := netip.PrefixFrom(netip.AddrFrom4([4]byte{50, byte(r.Intn(6)), 0, 0}), 16)
			nh := netip.AddrFrom4([4]byte{10, 0, 0, byte(1 + r.Intn(250))})
			cur, present := shadow[net]
			if !present {
				e := route.Entry{Net: net, NextHop: nh}
				shadow[net] = e
				b.Add(e)
				apply(raw, FIBOpAdd, route.Entry{}, e)
				continue
			}
			if r.Intn(3) == 0 {
				delete(shadow, net)
				b.Delete(cur)
				apply(raw, FIBOpDelete, cur, route.Entry{})
				continue
			}
			e := route.Entry{Net: net, NextHop: nh}
			shadow[net] = e
			b.Replace(cur, e)
			apply(raw, FIBOpReplace, cur, e)
		}
		b.Ops(func(op FIBOp) { apply(batched, op.Kind, op.Old, op.New) })
		if len(raw) != len(batched) {
			t.Fatalf("trial %d: raw %d entries, batched %d", trial, len(raw), len(batched))
		}
		for net, e := range raw {
			if be, ok := batched[net]; !ok || !be.Equal(e) {
				t.Fatalf("trial %d: %v raw=%v batched=%v ok=%v", trial, net, e, be, ok)
			}
		}
	}
}

// ---------------------------------------------------------------------
// Hot-path allocation regression.
// ---------------------------------------------------------------------

// TestAddRouteAllocs pins the allocs per add+delete cycle through the
// full stage network with profiling points disabled. The seed paid ~8
// extra allocations per cycle boxing profiler Logf arguments that were
// then discarded; the Enabled() guards must keep that at zero, and the
// trie slab keeps node allocation amortized.
func TestAddRouteAllocs(t *testing.T) {
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	p := NewProcess(loop, nil, nil)
	var setupErr error
	loop.Dispatch(func() {
		for i := 0; i < 10000; i++ {
			net := netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(1 + i%200), byte(i >> 8), byte(i), 0}), 24)
			if err := p.AddRoute(route.ProtoStatic, route.Entry{
				Net: net, NextHop: netip.AddrFrom4([4]byte{10, 0, 0, 1}), IfName: "eth0",
			}); err != nil {
				setupErr = err
			}
		}
	})
	loop.RunPending()
	if setupErr != nil {
		t.Fatal(setupErr)
	}
	net := mustP("10.200.1.0/24")
	e := route.Entry{Net: net, NextHop: netip.AddrFrom4([4]byte{10, 0, 0, 1}), IfName: "eth0"}
	var runErr error
	allocs := testing.AllocsPerRun(200, func() {
		loop.Dispatch(func() {
			if err := p.AddRoute(route.ProtoRIP, e); err != nil {
				runErr = err
			}
			if err := p.DeleteRoute(route.ProtoRIP, net); err != nil {
				runErr = err
			}
		})
		loop.RunPending()
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	// The cycle's own work (loop dispatch closures, map churn) allows a
	// small constant; the seed's Logf boxing alone added ~8 on top.
	const limit = 6
	if allocs > limit {
		t.Fatalf("add+delete cycle allocates %.1f/op, limit %d", allocs, limit)
	}
}
