package trie

import (
	"maps"
	"net/netip"
	"testing"
)

// FuzzTrie differentially fuzzes the trie and its persistent sibling
// against a map+linear-scan reference model. The input bytes are decoded
// as an op stream over both address families: insert, upsert, delete,
// get, longest-match and commit-batch, with every result cross-checked,
// plus a full-content sweep at the end. Edits reach the Persistent table
// as one-op versions, or through an open Txn between two commit-batch
// ops; every committed version must still hold, at the end, exactly what
// it held when it was committed.
func FuzzTrie(f *testing.F) {
	f.Add([]byte{0, 10, 0, 0, 0, 8, 1, 10, 1, 0, 0, 16, 2, 10, 0, 0, 0, 8})
	f.Add([]byte{0, 1, 2, 3, 4, 32, 4, 1, 2, 3, 4, 32, 2, 1, 2, 3, 4, 32})
	f.Add([]byte{
		0x80, 0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 128,
		0x84, 0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 64,
	})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 2, 2, 0, 0, 0, 0, 0})
	f.Add([]byte{
		5, 0, 0, 0, 0, 0, 0, 10, 0, 0, 0, 8, 0, 10, 1, 0, 0, 16, 2, 10, 0, 0, 0, 8,
		5, 0, 0, 0, 0, 0, 2, 10, 1, 0, 0, 16, 5, 0, 0, 0, 0, 0, 4, 10, 1, 2, 3, 32,
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		tr := New[int]()
		model := map[netip.Prefix]int{}
		pt := NewPersistent[int]()
		var x *Txn[int] // the open batch, if any

		// versions holds every committed Persistent with the model it
		// must keep matching.
		type version struct {
			pt    *Persistent[int]
			model map[netip.Prefix]int
		}
		var versions []version
		commit := func(next *Persistent[int]) {
			pt = next
			versions = append(versions, version{pt, maps.Clone(model)})
		}

		// decode pulls one op from the stream: 1 op byte (bit 7 selects
		// IPv6), then 4 or 16 address bytes, then 1 prefix-length byte.
		i := 0
		next := func() (op int, p netip.Prefix, ok bool) {
			if i >= len(data) {
				return 0, p, false
			}
			b := data[i]
			i++
			v6 := b&0x80 != 0
			op = int(b & 0x7f)
			var a netip.Addr
			if v6 {
				if i+16 > len(data) {
					return 0, p, false
				}
				var raw [16]byte
				copy(raw[:], data[i:i+16])
				a = netip.AddrFrom16(raw)
				i += 16
			} else {
				if i+4 > len(data) {
					return 0, p, false
				}
				var raw [4]byte
				copy(raw[:], data[i:i+4])
				a = netip.AddrFrom4(raw)
				i += 4
			}
			if i >= len(data) {
				return 0, p, false
			}
			bits := int(data[i]) % (a.BitLen() + 1)
			i++
			p, err := a.Prefix(bits)
			if err != nil {
				return 0, p, false
			}
			return op, p, true
		}

		step := 0
		for {
			op, p, ok := next()
			if !ok {
				break
			}
			step++
			switch op % 6 {
			case 0: // Insert
				wantReplaced := false
				if _, had := model[p]; had {
					wantReplaced = true
				}
				replaced, err := tr.Insert(p, step)
				if err != nil || replaced != wantReplaced {
					t.Fatalf("Insert(%v) = %v, %v; model replaced=%v", p, replaced, err, wantReplaced)
				}
				model[p] = step
				if x != nil {
					x.Insert(p, step)
				} else {
					commit(pt.Insert(p, step))
				}
			case 1: // Upsert
				wantOld, wantExisted := model[p]
				old, existed := tr.Upsert(p, step)
				if existed != wantExisted || old != wantOld {
					t.Fatalf("Upsert(%v) = (%d,%v), model (%d,%v)", p, old, existed, wantOld, wantExisted)
				}
				model[p] = step
				if x != nil {
					x.Insert(p, step)
				} else {
					commit(pt.Insert(p, step))
				}
			case 2: // Delete
				wantOld, wantExisted := model[p]
				old, existed := tr.Delete(p)
				if existed != wantExisted || old != wantOld {
					t.Fatalf("Delete(%v) = (%d,%v), model (%d,%v)", p, old, existed, wantOld, wantExisted)
				}
				delete(model, p)
				var pexisted bool
				if x != nil {
					pexisted = x.Delete(p)
				} else {
					var next *Persistent[int]
					next, pexisted = pt.Delete(p)
					if pexisted {
						commit(next)
					} else if next != pt {
						t.Fatalf("Persistent.Delete(%v) of a missing prefix returned a new version", p)
					}
				}
				if pexisted != wantExisted {
					t.Fatalf("Persistent Delete(%v) = %v, model %v", p, pexisted, wantExisted)
				}
			case 3: // Get
				wantV, wantOK := model[p]
				v, ok := tr.Get(p)
				if ok != wantOK || v != wantV {
					t.Fatalf("Get(%v) = (%d,%v), model (%d,%v)", p, v, ok, wantV, wantOK)
				}
				if x == nil {
					if v, ok := pt.Get(p); ok != wantOK || v != wantV {
						t.Fatalf("Persistent Get(%v) = (%d,%v), model (%d,%v)", p, v, ok, wantV, wantOK)
					}
				}
			case 5: // Commit batch: commit the open Txn, or open one
				if x != nil {
					commit(x.Commit())
					x = nil
				} else {
					x = pt.Txn()
				}
			case 4: // LongestMatch on the prefix's address
				addr := p.Addr()
				var bestP netip.Prefix
				bestLen, found := -1, false
				for q := range model {
					if q.Addr().Is4() == addr.Is4() && q.Contains(addr) && q.Bits() > bestLen {
						bestP, bestLen, found = q, q.Bits(), true
					}
				}
				gp, gv, ok := tr.LongestMatch(addr)
				if ok != found || (ok && gp != bestP) {
					t.Fatalf("LongestMatch(%v) = (%v,%v), model (%v,%v)", addr, gp, ok, bestP, found)
				}
				if ok && gv != model[bestP] {
					t.Fatalf("LongestMatch(%v) value %d, model %d", addr, gv, model[bestP])
				}
				if x == nil {
					pp, pv, pok := pt.LongestMatch(addr)
					if pok != ok || pp != gp || pv != gv {
						t.Fatalf("Persistent LongestMatch(%v) = (%v,%d,%v), trie (%v,%d,%v)", addr, pp, pv, pok, gp, gv, ok)
					}
				}
			}
		}

		if tr.Len() != len(model) {
			t.Fatalf("Len = %d, model %d", tr.Len(), len(model))
		}
		walked := 0
		tr.Walk(func(p netip.Prefix, v int) bool {
			if mv, ok := model[p]; !ok || mv != v {
				t.Fatalf("Walk yielded (%v,%d), model has (%d,%v)", p, v, mv, ok)
			}
			walked++
			return true
		})
		if walked != len(model) {
			t.Fatalf("Walk yielded %d entries, model %d", walked, len(model))
		}

		if x != nil {
			commit(x.Commit())
		}
		for i, v := range versions {
			if v.pt.Len() != len(v.model) {
				t.Fatalf("version %d: Len = %d, model %d", i, v.pt.Len(), len(v.model))
			}
			walked := 0
			v.pt.Walk(func(p netip.Prefix, val int) bool {
				if mv, ok := v.model[p]; !ok || mv != val {
					t.Fatalf("version %d: Walk yielded (%v,%d), model has (%d,%v)", i, p, val, mv, ok)
				}
				walked++
				return true
			})
			if walked != len(v.model) {
				t.Fatalf("version %d: Walk yielded %d entries, model %d", i, walked, len(v.model))
			}
		}
		if len(versions) > 0 && versions[len(versions)-1].pt != pt {
			t.Fatal("last committed version is not the current one")
		}
	})
}
