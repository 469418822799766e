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

// touchFIB is a FIBClient that keeps the final table and records every
// prefix the stage network emitted since the last reset.
type touchFIB struct {
	tbl     map[netip.Prefix]route.Entry
	touched []netip.Prefix
}

func (f *touchFIB) FIBApplyBatch(b *FIBBatch) {
	b.Ops(func(op FIBOp) {
		f.touched = append(f.touched, op.Net())
		if op.Kind == FIBOpDelete {
			delete(f.tbl, op.Old.Net)
		} else {
			f.tbl[op.New.Net] = op.New
		}
	})
}

// figure8 is the brute-force model of a registration answer (Figure 8)
// over the final routes: the longest match for addr, and the shortest
// prefix of addr no shorter than that match with no route strictly
// inside it.
func figure8(final map[netip.Prefix]route.Entry, addr netip.Addr) RegistrationAnswer {
	var ans RegistrationAnswer
	for net, e := range final {
		if net.Contains(addr) && (!ans.Resolves || net.Bits() > ans.Route.Net.Bits()) {
			ans.Resolves, ans.Route = true, e
		}
	}
	bits := 0
	if ans.Resolves {
		bits = ans.Route.Net.Bits()
	}
	for ; ; bits++ {
		c, _ := addr.Prefix(bits)
		inside := false
		for net := range final {
			if net.Bits() > bits && c.Contains(net.Addr()) {
				inside = true
				break
			}
		}
		if !inside || bits == addr.BitLen() {
			ans.Covering = c
			return ans
		}
	}
}

// TestRegisterMatchesFigure8Model drives random churn through the
// connected, static and ebgp origins — per route and in batches, with
// ebgp nexthops that resolve through the internal side or not at all —
// and registers interest at random addresses. Every answer must equal
// the brute-force Figure 8 model over the FIB's final table, and after
// each change every registration overlapping an emitted prefix must be
// invalidated exactly once, and no other.
func TestRegisterMatchesFigure8Model(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		r := rand.New(rand.NewSource(int64(300 + trial)))
		fib := &touchFIB{tbl: make(map[netip.Prefix]route.Entry)}
		p := NewProcess(eventloop.New(eventloop.NewSimClock(time.Unix(0, 0))), fib, nil)
		invalidated := make(map[string]int)
		p.register.notify = func(client string, _ netip.Prefix) { invalidated[client]++ }

		// A small universe in 10.0.0.0/14 so routes and coverings nest.
		randAddr := func() netip.Addr {
			return netip.AddrFrom4([4]byte{10, byte(r.Intn(4)), byte(r.Intn(256)), byte(r.Intn(256))})
		}
		var universe []netip.Prefix
		for i := 0; i < 40; i++ {
			pfx, _ := randAddr().Prefix([]int{8, 12, 14, 16, 18, 20, 24, 28}[r.Intn(8)])
			universe = append(universe, pfx)
		}
		pick := func() netip.Prefix { return universe[r.Intn(len(universe))] }
		nexthops := []netip.Addr{randAddr(), randAddr(), randAddr(), mustA("192.0.2.1")}

		type reg struct {
			client   string
			covering netip.Prefix
		}
		var live []reg
		checks, invalidations := 0, 0
		for step := 0; step < 400; step++ {
			fib.touched = fib.touched[:0]
			clear(invalidated)
			switch op := r.Intn(10); {
			case op < 2:
				p.AddRoute(route.ProtoConnected, route.Entry{Net: pick(), IfName: fmt.Sprintf("eth%d", r.Intn(3))})
			case op < 4:
				p.AddRoute(route.ProtoStatic, route.Entry{Net: pick(), NextHop: randAddr(), IfName: "eth9"})
			case op < 6:
				var es []route.Entry
				for n := 1 + r.Intn(5); n > 0; n-- {
					es = append(es, route.Entry{Net: pick(), NextHop: nexthops[r.Intn(len(nexthops))], Metric: uint32(r.Intn(3))})
				}
				p.AddRoutes(route.ProtoEBGP, es)
			case op < 8:
				proto := []route.Protocol{route.ProtoConnected, route.ProtoStatic, route.ProtoEBGP}[r.Intn(3)]
				if proto == route.ProtoEBGP && r.Intn(2) == 0 {
					p.DeleteRoutes(proto, []netip.Prefix{pick(), pick(), pick()})
				} else {
					p.DeleteRoute(proto, pick()) // absent routes error; that is fine
				}
			default:
				for n := 1 + r.Intn(4); n > 0; n-- {
					addr := randAddr()
					if r.Intn(8) == 0 {
						addr = mustA("11.1.1.1") // unrouted space
					}
					client := fmt.Sprintf("c%d.%d", step, n)
					got := p.register.RegisterInterest(client, addr)
					want := figure8(fib.tbl, addr)
					if got.Resolves != want.Resolves || got.Covering != want.Covering || !got.Route.Equal(want.Route) {
						t.Fatalf("trial %d step %d: answer for %v = %+v, model %+v", trial, step, addr, got, want)
					}
					live = append(live, reg{client, got.Covering})
					checks++
				}
				continue
			}
			kept := live[:0]
			for _, g := range live {
				want := 0
				for _, net := range fib.touched {
					if g.covering.Overlaps(net) {
						want = 1
						break
					}
				}
				if invalidated[g.client] != want {
					t.Fatalf("trial %d step %d: %s (covering %v) invalidated %d times, want %d; emitted %v",
						trial, step, g.client, g.covering, invalidated[g.client], want, fib.touched)
				}
				invalidations += want
				if want == 0 {
					kept = append(kept, g)
				}
			}
			live = kept
			if n := p.register.Registrations(); n != len(live) {
				t.Fatalf("trial %d step %d: %d registrations live, model %d", trial, step, n, len(live))
			}
		}
		if checks == 0 || invalidations == 0 || len(fib.tbl) == 0 {
			t.Fatalf("trial %d exercised nothing: %d answers, %d invalidations, %d final routes",
				trial, checks, invalidations, len(fib.tbl))
		}
	}
}

// countFIB is a FIBClient that only counts ops: it keeps no state, so
// it allocates nothing itself.
type countFIB struct{ ops int }

func (f *countFIB) FIBApplyBatch(b *FIBBatch) { b.Ops(func(FIBOp) { f.ops++ }) }

// TestRIBBatchAllocsPerRoute pins the allocation cost of the RIB's batch
// path: a 256-route add_routes4 batch and the matching delete_routes4
// batch through a warm process, with nexthops that resolve through a
// connected route. The stages' run buffers are reused across batches and
// the final table is held once (in the extint stage).
func TestRIBBatchAllocsPerRoute(t *testing.T) {
	const n = 256
	fib := &countFIB{}
	p := NewProcess(eventloop.New(eventloop.NewSimClock(time.Unix(0, 0))), fib, nil)
	p.AddRoute(route.ProtoConnected, route.Entry{Net: mustP("192.168.0.0/16"), IfName: "eth0"})
	es := make([]route.Entry, n)
	nets := make([]netip.Prefix, n)
	for i := range es {
		nets[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 4), byte(i << 4), 0}), 20)
		es[i] = route.Entry{Net: nets[i], NextHop: mustA("192.168.1.1")}
	}
	cycle := func() {
		p.AddRoutes(route.ProtoEBGP, es)
		p.DeleteRoutes(route.ProtoEBGP, nets)
	}
	cycle()
	if fib.ops != 2*n+1 {
		t.Fatalf("FIB saw %d ops, want %d", fib.ops, 2*n+1)
	}
	perRoute := testing.AllocsPerRun(50, cycle) / n
	t.Logf("%.3f allocs/route (add and delete)", perRoute)
	if perRoute > allocsPerRouteBound {
		t.Errorf("%.3f allocs/route, bound %.2f", perRoute, allocsPerRouteBound)
	}
}

// allocsPerRouteBound is the measured 1.016 allocs/route plus a small
// margin. Nearly all of it is one allocation per route in the extint
// stage: its resolvedExt map stores the large extState values out of
// line. Regrowing the run buffers from nil on every batch cost another
// 0.14 allocs/route.
const allocsPerRouteBound = 1.05
