// Persistent is the copy-on-write sibling of Trie: an immutable
// longest-prefix-match table where every mutation returns a new version
// sharing all untouched structure with its predecessor. One route change
// copies only the nodes on the path from the root to the changed prefix
// (≤ 33 nodes for IPv4, ≤ 129 for IPv6), so a published version can be
// read forever — lock-free, from any goroutine — while arbitrarily many
// successors are built beside it. A batch of changes goes through one
// Txn, a transient edit that copies each shared node at most once per
// batch and mutates its own copies in place.
//
// This is the structure underneath internal/fwd's RCU-style FIB
// snapshots: the forwarding workers chase an atomic pointer to the
// current version; the write side derives version n+1 from n in one Txn
// and flips the pointer. Readers never observe a half-applied batch
// because no node reachable from a committed version is ever mutated.

package trie

import (
	"encoding/binary"
	"net/netip"
	"sync/atomic"
)

// pnode is one node of a Persistent table. Like Trie's node it is either
// valued or structural glue, and carries its prefix bits precomputed as a
// 128-bit word key so traversal never touches address bytes; the prefix
// itself is rebuilt from key and bits on the rare paths that return it,
// which keeps the node in a smaller allocation size class. Unlike Trie's
// node it has no parent pointer (paths are copied root-down). edit names
// the Txn that created the node: that edit, and only while it is open,
// may mutate the node in place. A node reachable from a committed version
// is never mutated again, because every Txn gets a fresh edit id.
type pnode[T any] struct {
	key    key128
	child  [2]*pnode[T]
	edit   uint64
	bits   uint8
	hasVal bool
	val    T
}

// lastEdit hands out Txn edit ids. Ids start at 1; 0 marks a committed
// Txn. A counter, unlike a pointer token, costs no allocation per Txn and
// keeps nothing alive.
var lastEdit atomic.Uint64

// covers reports whether n's prefix covers (k, kb).
func (n *pnode[T]) covers(k key128, kb uint8) bool {
	return n.bits <= kb && k.hasPrefix(n.key, n.bits)
}

// Persistent is an immutable LPM table version. The zero value is the
// usable empty table; Insert and Delete return new versions and never
// modify the receiver, and Txn builds a successor from a batch of edits.
// Methods on a *Persistent are safe for concurrent use by any number of
// readers while writers build successors.
type Persistent[T any] struct {
	root4 *pnode[T]
	root6 *pnode[T]
	size  int
}

// NewPersistent returns the empty table version.
func NewPersistent[T any]() *Persistent[T] { return &Persistent[T]{} }

// Len returns the number of valued entries.
func (t *Persistent[T]) Len() int { return t.size }

// Insert returns a new version with v stored at p (masked first),
// replacing any existing value. An invalid prefix returns the receiver
// unchanged. It is a one-op Txn.
func (t *Persistent[T]) Insert(p netip.Prefix, v T) *Persistent[T] {
	if !p.IsValid() {
		return t
	}
	x := t.Txn()
	x.Insert(p, v)
	return x.Commit()
}

// Delete returns a new version with the entry exactly at p removed, and
// reports whether it existed. When it does not, the receiver itself is
// returned (no copying). It is a one-op Txn.
func (t *Persistent[T]) Delete(p netip.Prefix) (*Persistent[T], bool) {
	x := t.Txn()
	if !x.Delete(p) {
		return t, false
	}
	return x.Commit(), true
}

// Txn is a batch-scoped transient edit of a Persistent version: the
// single-writer build of the next version. The first change below a node
// shared with a committed version copies that node once; every later
// change in the same Txn mutates the copy in place. A batch of edits thus
// copies each touched node at most once, instead of once per edit as a
// chain of one-op versions would. The version the Txn started from, and
// every other committed version, is never modified.
//
// A Txn is not safe for concurrent use. Readers of committed versions
// are unaffected by it.
type Txn[T any] struct {
	root4 *pnode[T]
	root6 *pnode[T]
	size  int
	edit  uint64 // 0 once committed
}

// Txn opens a transient edit starting from t.
func (t *Persistent[T]) Txn() *Txn[T] {
	return &Txn[T]{root4: t.root4, root6: t.root6, size: t.size, edit: lastEdit.Add(1)}
}

// Commit ends the edit and returns the version holding its changes. Any
// later use of the Txn panics, so it can never edit a committed node.
func (x *Txn[T]) Commit() *Persistent[T] {
	x.open()
	x.edit = 0
	return &Persistent[T]{root4: x.root4, root6: x.root6, size: x.size}
}

func (x *Txn[T]) open() {
	if x.edit == 0 {
		panic("trie: Txn used after Commit")
	}
}

// Insert stores v at p (masked first), replacing any existing value. An
// invalid prefix is ignored.
func (x *Txn[T]) Insert(p netip.Prefix, v T) {
	x.open()
	if !p.IsValid() {
		return
	}
	p = p.Masked()
	k := keyOf(p.Addr())
	pb := uint8(p.Bits())
	added := false
	if p.Addr().Is4() {
		x.root4 = x.insert(x.root4, k, pb, v, &added)
	} else {
		x.root6 = x.insert(x.root6, k, pb, v, &added)
	}
	if added {
		x.size++
	}
}

// Delete removes the entry exactly at p and reports whether it existed.
func (x *Txn[T]) Delete(p netip.Prefix) bool {
	x.open()
	if !p.IsValid() {
		return false
	}
	p = p.Masked()
	k := keyOf(p.Addr())
	pb := uint8(p.Bits())
	removed := false
	if p.Addr().Is4() {
		x.root4 = x.delete(x.root4, k, pb, &removed)
	} else {
		x.root6 = x.delete(x.root6, k, pb, &removed)
	}
	if removed {
		x.size--
	}
	return removed
}

// mut returns n if this edit owns it, else an owned copy of n.
func (x *Txn[T]) mut(n *pnode[T]) *pnode[T] {
	if n.edit == x.edit {
		return n
	}
	c := *n
	c.edit = x.edit
	return &c
}

// leaf returns a new owned valued node.
func (x *Txn[T]) leaf(k key128, pb uint8, v T) *pnode[T] {
	return &pnode[T]{key: k, bits: pb, hasVal: true, val: v, edit: x.edit}
}

// insert returns the subtree n with (k, pb) set to v, copying only shared
// nodes on the descent path.
func (x *Txn[T]) insert(n *pnode[T], k key128, pb uint8, v T, added *bool) *pnode[T] {
	if n == nil {
		*added = true
		return x.leaf(k, pb, v)
	}
	if n.bits == pb && n.key == k {
		*added = !n.hasVal
		c := x.mut(n)
		c.val = v
		c.hasVal = true
		return c
	}
	if n.covers(k, pb) {
		// n strictly covers p: descend.
		b := k.bit(n.bits)
		c := x.mut(n)
		c.child[b] = x.insert(c.child[b], k, pb, v, added)
		return c
	}
	*added = true
	if pb < n.bits && n.key.hasPrefix(k, pb) {
		// p covers n: the new node takes n as its child.
		nn := x.leaf(k, pb, v)
		nn.child[n.key.bit(pb)] = n
		return nn
	}
	// Diverge: glue node at the longest common prefix of p and n.
	gb := commonPrefixLen(k, n.key, min(pb, n.bits))
	g := &pnode[T]{key: k.masked(gb), bits: gb, edit: x.edit}
	g.child[n.key.bit(gb)] = n
	g.child[k.bit(gb)] = x.leaf(k, pb, v)
	return g
}

// delete returns the subtree n with the value at (k, pb) removed,
// splicing out nodes that become structurally unnecessary. Returns n
// itself when nothing changed.
func (x *Txn[T]) delete(n *pnode[T], k key128, pb uint8, removed *bool) *pnode[T] {
	if n == nil {
		return nil
	}
	if n.bits == pb && n.key == k {
		if !n.hasVal {
			return n
		}
		*removed = true
		switch {
		case n.child[0] != nil && n.child[1] != nil:
			// Still needed as a branch point: keep as glue.
			c := x.mut(n)
			var zero T
			c.val = zero
			c.hasVal = false
			return c
		case n.child[0] != nil:
			return n.child[0]
		default:
			return n.child[1]
		}
	}
	if !n.covers(k, pb) {
		return n
	}
	b := k.bit(n.bits)
	nc := x.delete(n.child[b], k, pb, removed)
	if !*removed {
		return n
	}
	if nc == nil && !n.hasVal {
		// A glue node left with one child splices out.
		return n.child[1-b]
	}
	c := x.mut(n)
	c.child[b] = nc
	return c
}

// Get returns the value stored exactly at p.
func (t *Persistent[T]) Get(p netip.Prefix) (T, bool) {
	var zero T
	if !p.IsValid() {
		return zero, false
	}
	p = p.Masked()
	cur := t.root6
	if p.Addr().Is4() {
		cur = t.root4
	}
	k := keyOf(p.Addr())
	pb := uint8(p.Bits())
	for cur != nil {
		if cur.bits == pb && cur.key == k {
			if !cur.hasVal {
				return zero, false
			}
			return cur.val, true
		}
		if !cur.covers(k, pb) {
			return zero, false
		}
		cur = cur.child[k.bit(cur.bits)]
	}
	return zero, false
}

// LongestMatch returns the most specific entry covering addr. This is
// the forwarding-worker hot path: a pure pointer walk over immutable
// nodes, no locks, no allocation.
func (t *Persistent[T]) LongestMatch(addr netip.Addr) (netip.Prefix, T, bool) {
	cur := t.root6
	maxBits := uint8(128)
	if addr.Is4() {
		cur = t.root4
		maxBits = 32
	}
	var best *pnode[T]
	k := keyOf(addr)
	for cur != nil {
		if cur.bits > maxBits || !k.hasPrefix(cur.key, cur.bits) {
			break
		}
		if cur.hasVal {
			best = cur
		}
		cur = cur.child[k.bit(cur.bits)]
	}
	if best == nil {
		var zero T
		return netip.Prefix{}, zero, false
	}
	return best.key.prefix(best.bits, addr.Is4()), best.val, true
}

// Walk visits every valued entry in lexicographic (DFS pre-)order. fn
// returning false stops the walk. Safe to call on any version at any
// time; versions never change.
func (t *Persistent[T]) Walk(fn func(netip.Prefix, T) bool) {
	if walkP(t.root4, true, fn) {
		walkP(t.root6, false, fn)
	}
}

func walkP[T any](n *pnode[T], is4 bool, fn func(netip.Prefix, T) bool) bool {
	if n == nil {
		return true
	}
	var buf [48]*pnode[T]
	stack := append(buf[:0], n)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.hasVal && !fn(n.key.prefix(n.bits, is4), n.val) {
			return false
		}
		if n.child[1] != nil {
			stack = append(stack, n.child[1])
		}
		if n.child[0] != nil {
			stack = append(stack, n.child[0])
		}
	}
	return true
}

// masked returns k with all but its first n bits cleared.
func (k key128) masked(n uint8) key128 {
	if n <= 64 {
		return key128{hi: k.hi &^ (^uint64(0) >> n)}
	}
	return key128{hi: k.hi, lo: k.lo &^ (^uint64(0) >> (n - 64))}
}

// prefix rebuilds the netip.Prefix of a masked key: the inverse of keyOf
// for the given family.
func (k key128) prefix(bits uint8, is4 bool) netip.Prefix {
	if is4 {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], uint32(k.hi>>32))
		return netip.PrefixFrom(netip.AddrFrom4(b), int(bits))
	}
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], k.hi)
	binary.BigEndian.PutUint64(b[8:], k.lo)
	return netip.PrefixFrom(netip.AddrFrom16(b), int(bits))
}
