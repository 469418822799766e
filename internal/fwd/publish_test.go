package fwd

import (
	"math/rand"
	"net/netip"
	"testing"

	"xorp/internal/rib"
	"xorp/internal/route"
)

// TestPublishAllocsPerOp pins the cost of building one snapshot: a
// 1024-op batch of adds, replaces and deletes applied to a 100k-entry
// table. Apply builds the batch in one trie.Txn, so the upper levels of
// the trie are copied once per batch and each op pays only for the part
// of its path no earlier op in the batch copied. Per-op path copying
// (one copy of the whole root-to-leaf path per op) costs 17.55 allocs
// per op on this table and fails here.
func TestPublishAllocsPerOp(t *testing.T) {
	const (
		tableSize = 100_000
		batchOps  = 1024
		// Measured 6.50 allocs/op (go1.24, linux/amd64): the ops of
		// one batch share only the upper levels of the trie, and each
		// copies the rest of its own path. The bound leaves a small
		// margin for toolchain variation.
		maxAllocsPerOp = 6.8
	)
	rng := rand.New(rand.NewSource(5))
	seen := map[netip.Prefix]bool{}
	randEntry := func() route.Entry {
		for {
			a := netip.AddrFrom4([4]byte{byte(1 + rng.Intn(223)), byte(rng.Intn(256)), byte(rng.Intn(256)), 0})
			p, _ := a.Prefix(8 + rng.Intn(17))
			if !seen[p] {
				seen[p] = true
				return route.Entry{Net: p, NextHop: netip.AddrFrom4([4]byte{192, 168, 0, byte(1 + rng.Intn(250))}), IfName: "eth0"}
			}
		}
	}
	full := rib.NewFIBBatch()
	installed := make([]route.Entry, tableSize)
	for i := range installed {
		installed[i] = randEntry()
		full.Add(installed[i])
	}
	p := NewPublisher()
	base := p.Apply(full)
	if base.Len() != tableSize {
		t.Fatalf("base snapshot holds %d entries, want %d", base.Len(), tableSize)
	}

	// A third each of fresh adds, replaces and deletes, on distinct
	// prefixes so nothing folds away inside the batch.
	rng.Shuffle(len(installed), func(i, j int) { installed[i], installed[j] = installed[j], installed[i] })
	b := rib.NewFIBBatch()
	for i := 0; i < batchOps; i++ {
		switch i % 3 {
		case 0:
			b.Add(randEntry())
		case 1:
			old := installed[i]
			new := old
			new.NextHop = netip.AddrFrom4([4]byte{192, 168, 1, 1})
			b.Replace(old, new)
		case 2:
			b.Delete(installed[i])
		}
	}
	want := tableSize + (batchOps+2)/3 - batchOps/3

	var got int
	allocs := testing.AllocsPerRun(20, func() {
		p.cur.Store(base)
		got = p.Apply(b).Len()
	})
	if got != want {
		t.Fatalf("published snapshot holds %d entries, want %d", got, want)
	}
	perOp := allocs / batchOps
	t.Logf("Apply: %.0f allocs per %d-op batch, %.2f allocs/op", allocs, batchOps, perOp)
	if perOp > maxAllocsPerOp {
		t.Fatalf("Apply allocates %.2f per op, bound %.2f", perOp, maxAllocsPerOp)
	}
}
