package fwd_test

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"xorp/internal/eventloop"
	"xorp/internal/fwd"
	"xorp/internal/rib"
	"xorp/internal/route"
	"xorp/internal/xif"
	"xorp/internal/xipc"
	"xorp/internal/xrl"
)

func mustP(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func mustA(s string) netip.Addr   { return netip.MustParseAddr(s) }

func TestPublisherBasics(t *testing.T) {
	p := fwd.NewPublisher()
	s0 := p.Current()
	if s0.Gen() != 0 || s0.Len() != 0 {
		t.Fatalf("initial snapshot gen=%d len=%d", s0.Gen(), s0.Len())
	}

	b := rib.NewFIBBatch()
	b.Add(route.Entry{Net: mustP("10.0.0.0/8"), NextHop: mustA("192.168.1.1")})
	b.Add(route.Entry{Net: mustP("10.1.0.0/16"), NextHop: mustA("192.168.1.2")})
	s1 := p.Apply(b)

	if s1.Gen() != 1 || s1.Len() != 2 {
		t.Fatalf("after batch: gen=%d len=%d", s1.Gen(), s1.Len())
	}
	// The old snapshot is untouched: version isolation.
	if s0.Len() != 0 {
		t.Fatal("generation 0 mutated by publish")
	}
	if e, ok := s1.Lookup(mustA("10.1.2.3")); !ok || e.Net != mustP("10.1.0.0/16") {
		t.Fatalf("LPM = %v, %v", e, ok)
	}
	if e, ok := s1.Lookup(mustA("10.2.0.1")); !ok || e.Net != mustP("10.0.0.0/8") {
		t.Fatalf("LPM fallback = %v, %v", e, ok)
	}
	if _, ok := s1.Lookup(mustA("11.0.0.1")); ok {
		t.Fatal("miss resolved")
	}

	d := rib.NewFIBBatch()
	d.Delete(route.Entry{Net: mustP("10.1.0.0/16")})
	s2 := p.Apply(d)
	if s2.Gen() != 2 || s2.Len() != 1 {
		t.Fatalf("after delete: gen=%d len=%d", s2.Gen(), s2.Len())
	}
	// s1 still answers from its own version.
	if e, ok := s1.Lookup(mustA("10.1.2.3")); !ok || e.Net != mustP("10.1.0.0/16") {
		t.Fatalf("old snapshot lost its entry: %v, %v", e, ok)
	}
}

// randomEntry generates prefixes in 10.0.0.0/8 with varied lengths, so
// streams collide often enough to exercise replace/delete folding.
func randomEntry(rng *rand.Rand) route.Entry {
	bits := 8 + rng.Intn(17) // /8../24
	v := uint32(10)<<24 | uint32(rng.Intn(1<<16))<<8
	a := netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), 0})
	return route.Entry{
		Net:     netip.PrefixFrom(a, bits).Masked(),
		NextHop: netip.AddrFrom4([4]byte{192, 168, byte(rng.Intn(4)), byte(1 + rng.Intn(250))}),
		IfName:  fmt.Sprintf("eth%d", rng.Intn(3)),
	}
}

// lpmModel is the reference forwarding table the snapshot oracles check
// against: a plain map of installed entries, answering a longest-match
// query by brute force over every prefix length.
type lpmModel map[netip.Prefix]route.Entry

func (m lpmModel) apply(b *rib.FIBBatch) {
	b.Ops(func(op rib.FIBOp) {
		switch op.Kind {
		case rib.FIBOpAdd, rib.FIBOpReplace:
			m[op.New.Net] = op.New
		case rib.FIBOpDelete:
			delete(m, op.Old.Net)
		}
	})
}

func (m lpmModel) lookup(a netip.Addr) (route.Entry, bool) {
	for bits := a.BitLen(); bits >= 0; bits-- {
		if e, ok := m[netip.PrefixFrom(a, bits).Masked()]; ok {
			return e, true
		}
	}
	return route.Entry{}, false
}

// agree reports the first probe on which snap and the model disagree.
func (m lpmModel) agree(snap *fwd.Snapshot, probes []netip.Addr) error {
	if snap.Len() != len(m) {
		return fmt.Errorf("snapshot len %d != model len %d", snap.Len(), len(m))
	}
	for _, a := range probes {
		se, sok := snap.Lookup(a)
		me, mok := m.lookup(a)
		if sok != mok {
			return fmt.Errorf("probe %v: snapshot found=%v, model found=%v", a, sok, mok)
		}
		if !sok {
			continue
		}
		got := fmt.Sprintf("%v %v %s", se.Net, se.NextHop, se.IfName)
		want := fmt.Sprintf("%v %v %s", me.Net, me.NextHop, me.IfName)
		if got != want {
			return fmt.Errorf("probe %v: snapshot %q != model %q", a, got, want)
		}
	}
	return nil
}

// TestSnapshotFIBOracle is the differential oracle: the same batch
// stream applied to the publisher and to the reference model must give
// byte-identical longest-prefix-match answers at every generation. CI
// fails on any divergence.
func TestSnapshotFIBOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pub := fwd.NewPublisher()
	model := lpmModel{}

	probes := make([]netip.Addr, 256)
	for i := range probes {
		probes[i] = netip.AddrFrom4([4]byte{10, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))})
	}

	live := make([]netip.Prefix, 0, 512)
	for step := 0; step < 300; step++ {
		b := rib.NewFIBBatch()
		for n := rng.Intn(20) + 1; n > 0; n-- {
			if len(live) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(live))
				b.Delete(route.Entry{Net: live[i]})
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			} else {
				e := randomEntry(rng)
				b.Add(e)
				live = append(live, e.Net)
			}
		}
		snap := pub.Apply(b)
		model.apply(b)
		if snap.Gen() != uint64(step+1) {
			t.Fatalf("step %d: generation %d, want %d", step, snap.Gen(), step+1)
		}
		if err := model.agree(snap, probes); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// TestQuickFIBMatchesModel drives random install/remove streams, one
// batch of one per op, through a publisher and checks the final
// snapshot against the reference model at every installed prefix.
func TestQuickFIBMatchesModel(t *testing.T) {
	f := func(ops []uint32) bool {
		pub := fwd.NewPublisher()
		model := lpmModel{}
		var probes []netip.Addr
		for _, op := range ops {
			bits := int(op>>24) % 25
			p, err := netip.AddrFrom4([4]byte{byte(op), byte(op >> 8), 0, 0}).Prefix(bits)
			if err != nil {
				continue
			}
			b := rib.NewFIBBatch()
			if op%3 == 0 {
				b.Delete(route.Entry{Net: p})
			} else {
				b.Add(route.Entry{Net: p, NextHop: mustA("10.0.0.254"), IfName: "eth0"})
			}
			pub.Apply(b)
			model.apply(b)
			probes = append(probes, p.Addr())
		}
		if err := model.agree(pub.Current(), probes); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestFIBInstallObserver: the observer sees every published add, and
// nothing once removed.
func TestFIBInstallObserver(t *testing.T) {
	pub := fwd.NewPublisher()
	var seen []netip.Prefix
	pub.SetInstallObserver(func(e route.Entry) { seen = append(seen, e.Net) })
	b := rib.NewFIBBatch()
	b.Add(route.Entry{Net: mustP("10.0.0.0/8")})
	b.Add(route.Entry{}) // invalid: never installed, never observed
	pub.Apply(b)
	pub.SetInstallObserver(nil)
	b.Reset()
	b.Add(route.Entry{Net: mustP("11.0.0.0/8")})
	pub.Apply(b)
	if len(seen) != 1 || seen[0] != mustP("10.0.0.0/8") {
		t.Fatalf("observer saw %v", seen)
	}
}

// TestFIBObserverRunsOutsideLock pins the install-observer invariant:
// callbacks fire after publication with the write lock released, so an
// observer sees its entry in Current and may reenter the publisher. If
// Apply ever invoked the callback under its mutex, the reentrant Apply
// and SetInstallObserver calls here would deadlock (and the test would
// time out).
func TestFIBObserverRunsOutsideLock(t *testing.T) {
	pub := fwd.NewPublisher()
	var seen []netip.Prefix
	var observe func(route.Entry)
	observe = func(e route.Entry) {
		if _, ok := pub.Current().Get(e.Net); !ok {
			t.Errorf("observer: %v not published at callback time", e.Net)
		}
		seen = append(seen, e.Net)
		if e.Net == mustP("10.0.0.0/8") {
			// Reentrant writes: legal only because the lock is not held.
			pub.SetInstallObserver(observe)
			d := rib.NewFIBBatch()
			d.Delete(e)
			pub.Apply(d)
		}
	}
	pub.SetInstallObserver(observe)

	b := rib.NewFIBBatch()
	b.Add(route.Entry{Net: mustP("10.0.0.0/8")})
	pub.Apply(b)
	b.Reset()
	b.Add(route.Entry{Net: mustP("10.1.0.0/16")})
	b.Add(route.Entry{Net: mustP("10.2.0.0/16")})
	pub.Apply(b)
	if len(seen) != 3 {
		t.Fatalf("observer saw %d installs, want 3: %v", len(seen), seen)
	}
	if s := pub.Current(); s.Len() != 2 || s.Gen() != 3 {
		t.Fatalf("len %d gen %d, want 2 entries at generation 3", s.Len(), s.Gen())
	}
}

// TestRaceSwapVsLookup runs concurrent snapshot publication against
// worker lookups — the exact interleaving the lock-free design claims
// to make safe. Meaningful under -race (the CI race job runs it); it
// also asserts reader-visible invariants: generations never go
// backward, and a snapshot's length always matches a full walk of it.
func TestRaceSwapVsLookup(t *testing.T) {
	pub := fwd.NewPublisher()

	seed := rib.NewFIBBatch()
	prefixes := make([]netip.Prefix, 0, 64)
	for i := 0; i < 64; i++ {
		p := mustP(fmt.Sprintf("10.%d.0.0/16", i))
		seed.Add(route.Entry{Net: p, NextHop: mustA("192.168.1.1")})
		prefixes = append(prefixes, p)
	}
	pub.Apply(seed)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			lastGen := uint64(0)
			for !stop.Load() {
				snap := pub.Current()
				if g := snap.Gen(); g < lastGen {
					t.Errorf("reader %d: generation went backward %d -> %d", id, lastGen, g)
					return
				} else {
					lastGen = g
				}
				a := netip.AddrFrom4([4]byte{10, byte(rng.Intn(64)), 1, 1})
				if e, ok := snap.Lookup(a); ok && !e.Net.Contains(a) {
					t.Errorf("reader %d: LPM %v does not cover %v", id, e.Net, a)
					return
				}
				// Occasionally verify whole-snapshot consistency.
				if rng.Intn(512) == 0 {
					n := 0
					snap.Walk(func(route.Entry) bool { n++; return true })
					if n != snap.Len() {
						t.Errorf("reader %d: walk %d != len %d in one snapshot", id, n, snap.Len())
						return
					}
				}
			}
		}(r)
	}

	// An observer swapped in and out while the writer publishes: it
	// must only ever see entries of the batch being published.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			pub.SetInstallObserver(func(e route.Entry) {
				if e.NextHop != mustA("192.168.1.2") {
					t.Errorf("observer saw %v, not a churned entry", e)
				}
			})
			pub.SetInstallObserver(nil)
		}
	}()

	// Writer: churn adds/deletes through the publisher.
	rng := rand.New(rand.NewSource(99))
	for step := 0; step < 400; step++ {
		b := rib.NewFIBBatch()
		for n := 0; n < 8; n++ {
			p := prefixes[rng.Intn(len(prefixes))]
			if rng.Intn(2) == 0 {
				b.Delete(route.Entry{Net: p})
			} else {
				b.Add(route.Entry{Net: p, NextHop: mustA("192.168.1.2")})
			}
		}
		pub.Apply(b)
	}
	stop.Store(true)
	wg.Wait()
}

// TestPoolForwarding runs a real worker pool briefly and checks the
// counter identities: lookups = hits + drops, all workers progressed,
// and the miss traffic actually misses.
func TestPoolForwarding(t *testing.T) {
	pub := fwd.NewPublisher()
	seed := rib.NewFIBBatch()
	prefixes := make([]netip.Prefix, 0, 32)
	for i := 0; i < 32; i++ {
		p := mustP(fmt.Sprintf("10.%d.0.0/16", i))
		seed.Add(route.Entry{Net: p, NextHop: mustA("192.168.1.1")})
		prefixes = append(prefixes, p)
	}
	pub.Apply(seed)

	stream, err := fwd.NewStream(fwd.StreamConfig{
		Prefixes: prefixes, Dist: "zipf", MissRatio: 0.25, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	pool := fwd.NewPool(pub, stream, 2)
	pool.Start()
	// Let every worker complete at least one flush quantum.
	for {
		agg := pool.Counters()
		if agg.Lookups >= 4096 {
			break
		}
	}
	pool.Stop()

	agg := pool.Counters()
	if agg.Lookups != agg.Hits+agg.Drops {
		t.Fatalf("lookups %d != hits %d + drops %d", agg.Lookups, agg.Hits, agg.Drops)
	}
	ratio := float64(agg.Drops) / float64(agg.Lookups)
	if ratio < 0.15 || ratio > 0.35 {
		t.Fatalf("drop ratio %.3f, want ~0.25 (miss traffic must miss)", ratio)
	}
	for _, c := range pool.WorkerCounters() {
		if c.Lookups == 0 {
			t.Fatalf("worker %d made no progress", c.Worker)
		}
	}
	if agg.Latency.Count() == 0 || agg.Latency.Mean() <= 0 {
		t.Fatalf("no latency samples aggregated: %+v", agg.Latency)
	}
}

// TestStreamDeterminismAndDistribution pins the stream contract: same
// seed, same ring; zipf skews toward the hottest prefix; uniform
// doesn't.
func TestStreamDeterminismAndDistribution(t *testing.T) {
	prefixes := make([]netip.Prefix, 64)
	for i := range prefixes {
		prefixes[i] = mustP(fmt.Sprintf("10.%d.0.0/16", i))
	}
	cfg := fwd.StreamConfig{Prefixes: prefixes, Dist: "zipf", Seed: 42}
	s1, err := fwd.NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := fwd.NewStream(cfg)
	c1, c2 := s1.Cursor(0), s2.Cursor(0)
	for i := 0; i < 1000; i++ {
		if c1.Next() != c2.Next() {
			t.Fatal("same seed produced different streams")
		}
	}

	countTop := func(s *fwd.Stream) int {
		cur := s.Cursor(0)
		top := 0
		for i := 0; i < s.Len(); i++ {
			if prefixes[0].Contains(cur.Next()) {
				top++
			}
		}
		return top
	}
	zipfTop := countTop(s1)
	uni, _ := fwd.NewStream(fwd.StreamConfig{Prefixes: prefixes, Dist: "uniform", Seed: 42})
	uniTop := countTop(uni)
	if zipfTop <= 2*uniTop {
		t.Fatalf("zipf top-prefix share %d not skewed vs uniform %d", zipfTop, uniTop)
	}

	if _, err := fwd.NewStream(fwd.StreamConfig{Prefixes: prefixes, Dist: "pareto"}); err == nil {
		t.Fatal("unknown distribution accepted")
	}
	if _, err := fwd.NewStream(fwd.StreamConfig{}); err == nil {
		t.Fatal("empty prefix set accepted")
	}
}

// TestFwdXRL scrapes a running pool through the fwd/0.1 typed stub.
func TestFwdXRL(t *testing.T) {
	pub := fwd.NewPublisher()
	seed := rib.NewFIBBatch()
	prefixes := []netip.Prefix{mustP("10.0.0.0/8")}
	seed.Add(route.Entry{Net: prefixes[0], NextHop: mustA("192.168.1.1")})
	pub.Apply(seed)

	stream, err := fwd.NewStream(fwd.StreamConfig{Prefixes: prefixes, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pool := fwd.NewPool(pub, stream, 2)
	pool.Start()
	defer pool.Stop()
	for pool.Counters().Lookups < 2048 {
	}

	loop := eventloop.New(nil)
	r := xipc.NewRouter("fwdtest", loop)
	target := xipc.NewTarget("fwd", "fwd")
	pool.RegisterXRLs(target)
	r.AddTarget(target)

	stub := xif.NewFwdClient(r, "fwd")
	var got xif.FwdCounters
	var stats []string
	stub.GetCounters(func(c xif.FwdCounters, err *xrl.Error) {
		if err != nil {
			t.Errorf("get_counters: %v", err)
			return
		}
		got = c
	})
	stub.GetWorkerStats(func(s []string, err *xrl.Error) {
		if err != nil {
			t.Errorf("get_worker_stats: %v", err)
			return
		}
		stats = s
	})
	loop.RunPending()

	if got.Workers != 2 || got.Lookups == 0 || got.Lookups != got.Hits+got.Drops {
		t.Fatalf("scraped counters %+v", got)
	}
	if got.Gen == 0 {
		t.Fatalf("scraped gen = 0, want the seeded publication: %+v", got)
	}
	if len(stats) != 2 {
		t.Fatalf("worker stats = %v, want 2 lines", stats)
	}
}
