package trie

import (
	"math/rand"
	"net/netip"
	"testing"
)

func TestPersistentBasic(t *testing.T) {
	p0 := NewPersistent[string]()
	p1 := p0.Insert(netip.MustParsePrefix("10.0.0.0/8"), "a")
	p2 := p1.Insert(netip.MustParsePrefix("10.1.0.0/16"), "b")
	p3 := p2.Insert(netip.MustParsePrefix("10.1.1.0/24"), "c")

	if p0.Len() != 0 || p1.Len() != 1 || p2.Len() != 2 || p3.Len() != 3 {
		t.Fatalf("lengths: %d %d %d %d", p0.Len(), p1.Len(), p2.Len(), p3.Len())
	}

	// Older versions are untouched by later inserts.
	if _, _, ok := p1.LongestMatch(netip.MustParseAddr("10.1.1.1")); !ok {
		t.Fatal("p1 lost its /8")
	}
	if pfx, v, _ := p1.LongestMatch(netip.MustParseAddr("10.1.1.1")); v != "a" || pfx.Bits() != 8 {
		t.Fatalf("p1 match = %v %q, want /8 a", pfx, v)
	}
	if pfx, v, _ := p3.LongestMatch(netip.MustParseAddr("10.1.1.1")); v != "c" || pfx.Bits() != 24 {
		t.Fatalf("p3 match = %v %q, want /24 c", pfx, v)
	}

	// Replacing a value leaves the old version with the old value.
	p4 := p3.Insert(netip.MustParsePrefix("10.1.1.0/24"), "c2")
	if p4.Len() != 3 {
		t.Fatalf("replace changed len: %d", p4.Len())
	}
	if v, _ := p3.Get(netip.MustParsePrefix("10.1.1.0/24")); v != "c" {
		t.Fatalf("p3 value mutated: %q", v)
	}
	if v, _ := p4.Get(netip.MustParsePrefix("10.1.1.0/24")); v != "c2" {
		t.Fatalf("p4 value = %q", v)
	}

	// Deleting from p4 leaves p4 intact in the new version's ancestors.
	p5, ok := p4.Delete(netip.MustParsePrefix("10.1.0.0/16"))
	if !ok || p5.Len() != 2 {
		t.Fatalf("delete: ok=%v len=%d", ok, p5.Len())
	}
	if _, ok := p4.Get(netip.MustParsePrefix("10.1.0.0/16")); !ok {
		t.Fatal("p4 lost its /16 after delete on successor")
	}
	if pfx, _, _ := p5.LongestMatch(netip.MustParseAddr("10.1.1.1")); pfx.Bits() != 24 {
		t.Fatalf("p5 LPM = %v, want /24", pfx)
	}
	if pfx, _, _ := p5.LongestMatch(netip.MustParseAddr("10.1.2.1")); pfx.Bits() != 8 {
		t.Fatalf("p5 LPM = %v, want /8", pfx)
	}

	// Deleting a missing prefix returns the receiver.
	same, ok := p5.Delete(netip.MustParsePrefix("192.168.0.0/16"))
	if ok || same != p5 {
		t.Fatal("delete of missing prefix must return the receiver unchanged")
	}
}

func TestPersistentV6(t *testing.T) {
	p := NewPersistent[int]().
		Insert(netip.MustParsePrefix("2001:db8::/32"), 1).
		Insert(netip.MustParsePrefix("2001:db8:1::/48"), 2).
		Insert(netip.MustParsePrefix("10.0.0.0/8"), 3)
	if p.Len() != 3 {
		t.Fatalf("len = %d", p.Len())
	}
	if _, v, _ := p.LongestMatch(netip.MustParseAddr("2001:db8:1::5")); v != 2 {
		t.Fatalf("v6 LPM = %d, want 2", v)
	}
	if _, v, _ := p.LongestMatch(netip.MustParseAddr("2001:db8:2::5")); v != 1 {
		t.Fatalf("v6 LPM = %d, want 1", v)
	}
	if _, v, _ := p.LongestMatch(netip.MustParseAddr("10.9.9.9")); v != 3 {
		t.Fatalf("v4 LPM through mixed table = %d, want 3", v)
	}
	if _, _, ok := p.LongestMatch(netip.MustParseAddr("2002::1")); ok {
		t.Fatal("unexpected v6 match")
	}
}

// TestPersistentMatchesTrie drives the same random operation stream into
// a Persistent chain and a mutable Trie and demands identical Get,
// LongestMatch and Walk results at every step — the correctness anchor
// the fwd snapshot oracle builds on.
func TestPersistentMatchesTrie(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	mt := New[uint32]()
	pt := NewPersistent[uint32]()

	randPrefix := func() netip.Prefix {
		bits := 8 + r.Intn(25) // 8..32
		a := netip.AddrFrom4([4]byte{byte(10 + r.Intn(4)), byte(r.Intn(8)), byte(r.Intn(8)), byte(r.Intn(4))})
		p, _ := a.Prefix(bits)
		return p
	}
	probes := make([]netip.Addr, 64)
	for i := range probes {
		probes[i] = netip.AddrFrom4([4]byte{byte(10 + r.Intn(4)), byte(r.Intn(8)), byte(r.Intn(8)), byte(r.Intn(256))})
	}

	var live []netip.Prefix
	for step := 0; step < 4000; step++ {
		if r.Intn(3) != 0 || len(live) == 0 {
			p := randPrefix()
			v := r.Uint32()
			mt.Insert(p, v)
			pt = pt.Insert(p, v)
			live = append(live, p)
		} else {
			i := r.Intn(len(live))
			p := live[i]
			live = append(live[:i], live[i+1:]...)
			_, mok := mt.Delete(p)
			var pok bool
			pt, pok = pt.Delete(p)
			if mok != pok {
				t.Fatalf("step %d: delete(%v) trie=%v persistent=%v", step, p, mok, pok)
			}
		}
		if mt.Len() != pt.Len() {
			t.Fatalf("step %d: len trie=%d persistent=%d", step, mt.Len(), pt.Len())
		}
		if step%17 == 0 {
			for _, a := range probes {
				mp, mv, mok := mt.LongestMatch(a)
				pp, pv, pok := pt.LongestMatch(a)
				if mok != pok || mp != pp || mv != pv {
					t.Fatalf("step %d: LPM(%v) trie=(%v,%d,%v) persistent=(%v,%d,%v)",
						step, a, mp, mv, mok, pp, pv, pok)
				}
			}
		}
	}

	// Final structural comparison via Walk.
	type kv struct {
		p netip.Prefix
		v uint32
	}
	var ms, ps []kv
	mt.Walk(func(p netip.Prefix, v uint32) bool { ms = append(ms, kv{p, v}); return true })
	pt.Walk(func(p netip.Prefix, v uint32) bool { ps = append(ps, kv{p, v}); return true })
	if len(ms) != len(ps) {
		t.Fatalf("walk counts differ: %d vs %d", len(ms), len(ps))
	}
	for i := range ms {
		if ms[i] != ps[i] {
			t.Fatalf("walk[%d]: trie=%v persistent=%v", i, ms[i], ps[i])
		}
	}
}

// TestTxnMatchesTrie drives random multi-op batches through Txn/Commit
// and the same ops into a mutable Trie, demanding identical Get,
// LongestMatch and Walk results after every commit. It also checks
// persistence: every earlier committed version still walks exactly as it
// did when committed, so an in-place edit that leaked into a published
// node fails here.
func TestTxnMatchesTrie(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	mt := New[uint32]()
	pt := NewPersistent[uint32]()

	randPrefix := func() netip.Prefix {
		if r.Intn(8) == 0 {
			a := netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, byte(r.Intn(4)), byte(r.Intn(16))})
			p, _ := a.Prefix(32 + r.Intn(33))
			return p
		}
		a := netip.AddrFrom4([4]byte{byte(10 + r.Intn(4)), byte(r.Intn(8)), byte(r.Intn(8)), byte(r.Intn(4))})
		p, _ := a.Prefix(8 + r.Intn(25))
		return p
	}
	probes := make([]netip.Addr, 64)
	for i := range probes {
		probes[i] = netip.AddrFrom4([4]byte{byte(10 + r.Intn(4)), byte(r.Intn(8)), byte(r.Intn(8)), byte(r.Intn(256))})
	}
	for i := 0; i < 16; i++ {
		probes = append(probes, netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, byte(r.Intn(4)), byte(r.Intn(16)), 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}))
	}

	type kv struct {
		p netip.Prefix
		v uint32
	}
	walkP := func(pt *Persistent[uint32]) []kv {
		var out []kv
		pt.Walk(func(p netip.Prefix, v uint32) bool { out = append(out, kv{p, v}); return true })
		return out
	}
	type version struct {
		pt   *Persistent[uint32]
		walk []kv
	}
	var versions []version
	var live []netip.Prefix
	for batch := 0; batch < 300; batch++ {
		x := pt.Txn()
		var touched []netip.Prefix
		for n := 1 + r.Intn(40); n > 0; n-- {
			if r.Intn(3) != 0 || len(live) == 0 {
				p := randPrefix()
				v := r.Uint32()
				mt.Insert(p, v)
				x.Insert(p, v)
				live = append(live, p)
				touched = append(touched, p)
			} else {
				i := r.Intn(len(live))
				p := live[i]
				live = append(live[:i], live[i+1:]...)
				_, mok := mt.Delete(p)
				if xok := x.Delete(p); mok != xok {
					t.Fatalf("batch %d: delete(%v) trie=%v txn=%v", batch, p, mok, xok)
				}
				touched = append(touched, p)
			}
		}
		pt = x.Commit()
		if mt.Len() != pt.Len() {
			t.Fatalf("batch %d: len trie=%d persistent=%d", batch, mt.Len(), pt.Len())
		}
		for _, p := range touched {
			mv, mok := mt.Get(p)
			pv, pok := pt.Get(p)
			if mok != pok || mv != pv {
				t.Fatalf("batch %d: Get(%v) trie=(%d,%v) persistent=(%d,%v)", batch, p, mv, mok, pv, pok)
			}
		}
		for _, a := range probes {
			mp, mv, mok := mt.LongestMatch(a)
			pp, pv, pok := pt.LongestMatch(a)
			if mok != pok || mp != pp || mv != pv {
				t.Fatalf("batch %d: LPM(%v) trie=(%v,%d,%v) persistent=(%v,%d,%v)",
					batch, a, mp, mv, mok, pp, pv, pok)
			}
		}
		var ms []kv
		mt.Walk(func(p netip.Prefix, v uint32) bool { ms = append(ms, kv{p, v}); return true })
		ps := walkP(pt)
		if len(ms) != len(ps) {
			t.Fatalf("batch %d: walk counts differ: %d vs %d", batch, len(ms), len(ps))
		}
		for i := range ms {
			if ms[i] != ps[i] {
				t.Fatalf("batch %d: walk[%d]: trie=%v persistent=%v", batch, i, ms[i], ps[i])
			}
		}
		versions = append(versions, version{pt, ps})
	}
	for i, v := range versions {
		got := walkP(v.pt)
		if len(got) != len(v.walk) || v.pt.Len() != len(v.walk) {
			t.Fatalf("version %d changed after commit: %d entries, was %d", i, len(got), len(v.walk))
		}
		for j := range got {
			if got[j] != v.walk[j] {
				t.Fatalf("version %d changed after commit: walk[%d] = %v, was %v", i, j, got[j], v.walk[j])
			}
		}
	}
}

// TestTxnUseAfterCommitPanics pins that a committed Txn cannot edit the
// version it published.
func TestTxnUseAfterCommitPanics(t *testing.T) {
	x := NewPersistent[int]().Txn()
	x.Insert(netip.MustParsePrefix("10.0.0.0/8"), 1)
	v := x.Commit()
	defer func() {
		if recover() == nil {
			t.Fatal("Insert after Commit did not panic")
		}
		if got, _ := v.Get(netip.MustParsePrefix("10.0.0.0/8")); got != 1 {
			t.Fatalf("committed version changed: %d", got)
		}
	}()
	x.Insert(netip.MustParsePrefix("10.0.0.0/8"), 2)
}

func BenchmarkPersistentLongestMatch(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	pt := NewPersistent[int]()
	for i := 0; i < 100000; i++ {
		a := netip.AddrFrom4([4]byte{byte(r.Intn(224)), byte(r.Intn(256)), byte(r.Intn(256)), 0})
		p, _ := a.Prefix(8 + r.Intn(17))
		pt = pt.Insert(p, i)
	}
	addrs := make([]netip.Addr, 1024)
	for i := range addrs {
		addrs[i] = netip.AddrFrom4([4]byte{byte(r.Intn(224)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt.LongestMatch(addrs[i%len(addrs)])
	}
}

func BenchmarkPersistentInsert(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	prefixes := make([]netip.Prefix, 4096)
	for i := range prefixes {
		a := netip.AddrFrom4([4]byte{byte(r.Intn(224)), byte(r.Intn(256)), byte(r.Intn(256)), 0})
		prefixes[i], _ = a.Prefix(8 + r.Intn(17))
	}
	b.ReportAllocs()
	b.ResetTimer()
	pt := NewPersistent[int]()
	for i := 0; i < b.N; i++ {
		pt = pt.Insert(prefixes[i%len(prefixes)], i)
	}
}
