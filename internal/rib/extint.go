package rib

import (
	"net/netip"
	"slices"

	"xorp/internal/route"
	"xorp/internal/trie"
)

// ExtIntStage composes a set of external routes (BGP, whose nexthops are
// remote routers) with a set of internal routes (connected/static/IGP,
// whose nexthops are on-link), per Figure 7. External routes are
// recursively resolved against the internal side: an IBGP route "via
// 10.0.9.9" only becomes usable once an internal route tells us which
// interface and gateway reach 10.0.9.9. When internal routing changes,
// dependent external routes are re-resolved and re-announced — the
// event-driven dependency tracking that route scanners approximate with
// periodic rescans (§4).
type ExtIntStage struct {
	base
	ext, int Stage

	// resolved tracks external routes: original, the resolved form
	// announced downstream (ok=false when unresolvable), and which
	// internal prefix resolved it.
	resolvedExt map[netip.Prefix]extState
	// announced is the stage's downstream view (both sides merged): the
	// RIB's final table, which the register stage also answers from.
	announced *trie.Trie[route.Entry]

	runBuf []route.Entry // reused by the batch paths' runEmitter
}

type extState struct {
	orig     route.Entry
	resolved route.Entry
	ok       bool
	via      netip.Prefix
}

// NewExtIntStage composes parents ext and int.
func NewExtIntStage(name string, ext, int_ Stage) *ExtIntStage {
	e := &ExtIntStage{
		base:        base{name: name},
		ext:         ext,
		int:         int_,
		resolvedExt: make(map[netip.Prefix]extState),
		announced:   trie.New[route.Entry](),
	}
	ext.setDownstream(&extInput{e: e})
	int_.setDownstream(&intInput{e: e})
	return e
}

// extInput receives the external stream.
type extInput struct {
	base
	e *ExtIntStage
}

func (x *extInput) Add(e route.Entry)                         { x.e.extChanged(e.Net, &e) }
func (x *extInput) Replace(_, n route.Entry)                  { x.e.extChanged(n.Net, &n) }
func (x *extInput) Delete(e route.Entry)                      { x.e.extChanged(e.Net, nil) }
func (x *extInput) AddBatch(es []route.Entry)                 { x.e.extAddBatch(es) }
func (x *extInput) DeleteBatch(es []route.Entry)              { x.e.extDeleteBatch(es) }
func (x *extInput) Lookup(netip.Prefix) (route.Entry, bool)   { panic("rib: extInput lookup") }
func (x *extInput) LookupBest(netip.Addr) (route.Entry, bool) { panic("rib: extInput lookup") }

// intInput receives the internal stream.
type intInput struct {
	base
	e *ExtIntStage
}

func (x *intInput) Add(e route.Entry)                         { x.e.intChanged(e.Net) }
func (x *intInput) Replace(_, n route.Entry)                  { x.e.intChanged(n.Net) }
func (x *intInput) Delete(e route.Entry)                      { x.e.intChanged(e.Net) }
func (x *intInput) AddBatch(es []route.Entry)                 { x.e.intChangedBatch(es) }
func (x *intInput) DeleteBatch(es []route.Entry)              { x.e.intChangedBatch(es) }
func (x *intInput) Lookup(netip.Prefix) (route.Entry, bool)   { panic("rib: intInput lookup") }
func (x *intInput) LookupBest(netip.Addr) (route.Entry, bool) { panic("rib: intInput lookup") }

// resolve recursively resolves an external entry against the internal
// side. One level of recursion suffices because internal routes are
// directly usable by construction.
func (s *ExtIntStage) resolve(orig route.Entry) (route.Entry, netip.Prefix, bool) {
	if orig.IfName != "" || !orig.NextHop.IsValid() {
		// Already concrete (or a discard route): usable as-is.
		return orig, netip.Prefix{}, true
	}
	via, ok := s.int.LookupBest(orig.NextHop)
	if !ok {
		return orig, netip.Prefix{}, false
	}
	out := orig
	out.IfName = via.IfName
	if via.NextHop.IsValid() {
		// Nexthop is reached through a gateway: forward there.
		out.NextHop = via.NextHop
	}
	return out, via.Net, true
}

// extChanged processes an external-side change (nil = withdrawn).
func (s *ExtIntStage) extChanged(net netip.Prefix, e *route.Entry) {
	if e == nil {
		delete(s.resolvedExt, net)
	} else {
		st := extState{orig: *e}
		st.resolved, st.via, st.ok = s.resolve(*e)
		s.resolvedExt[net] = st
	}
	s.reconcile(net)
}

// nhResult caches one nexthop's resolution for the duration of a batch:
// the batch arrives from the external side only, so the internal tables —
// the sole input to resolve — cannot change mid-batch.
type nhResult struct {
	ifName string
	gw     netip.Addr // valid when the nexthop is reached via a gateway
	via    netip.Prefix
	ok     bool
}

// extAddBatch processes a run of external Adds, amortizing nexthop
// resolution across the batch (full-table feeds reuse a handful of
// nexthops) and re-coalescing the downstream emissions into runs. The
// emitted stream is identical to per-route extChanged calls.
func (s *ExtIntStage) extAddBatch(es []route.Entry) {
	em := newRunEmitter(s.next, &s.runBuf)
	var cache map[netip.Addr]nhResult
	for i := range es {
		e := es[i]
		st := extState{orig: e}
		if e.IfName != "" || !e.NextHop.IsValid() {
			// Already concrete (or a discard route): usable as-is.
			st.resolved, st.ok = e, true
		} else {
			r, hit := cache[e.NextHop]
			if !hit {
				if via, ok := s.int.LookupBest(e.NextHop); ok {
					r = nhResult{ifName: via.IfName, via: via.Net, ok: true}
					if via.NextHop.IsValid() {
						r.gw = via.NextHop
					}
				}
				if cache == nil {
					cache = make(map[netip.Addr]nhResult, 8)
				}
				cache[e.NextHop] = r
			}
			st.resolved, st.via, st.ok = e, r.via, r.ok
			if r.ok {
				st.resolved.IfName = r.ifName
				if r.gw.IsValid() {
					st.resolved.NextHop = r.gw
				}
			}
		}
		s.resolvedExt[e.Net] = st
		s.reconcileTo(e.Net, &em)
	}
	em.Close()
}

// extDeleteBatch processes a run of external withdrawals.
func (s *ExtIntStage) extDeleteBatch(es []route.Entry) {
	em := newRunEmitter(s.next, &s.runBuf)
	for i := range es {
		delete(s.resolvedExt, es[i].Net)
		s.reconcileTo(es[i].Net, &em)
	}
	em.Close()
}

// intChanged re-resolves external routes affected by an internal change
// and reconciles the changed prefix itself.
func (s *ExtIntStage) intChanged(net netip.Prefix) {
	s.intChangedTo(net, stageSink{s.next})
}

// intChangedBatch applies a run of internal changes, preserving the
// per-route re-resolution order while coalescing downstream emissions.
func (s *ExtIntStage) intChangedBatch(es []route.Entry) {
	em := newRunEmitter(s.next, &s.runBuf)
	for i := range es {
		s.intChangedTo(es[i].Net, &em)
	}
	em.Close()
}

func (s *ExtIntStage) intChangedTo(net netip.Prefix, out opSink) {
	s.reconcileTo(net, out)
	var affected []netip.Prefix
	for extNet, st := range s.resolvedExt {
		hit := (st.ok && st.via.IsValid() && st.via.Overlaps(net)) ||
			(!st.ok && net.Contains(st.orig.NextHop)) ||
			(st.ok && net.Contains(st.orig.NextHop) && net.Bits() >= st.via.Bits())
		if hit {
			affected = append(affected, extNet)
		}
	}
	// Re-announce in prefix order: map iteration order would make the
	// downstream stream nondeterministic across otherwise identical runs.
	slices.SortFunc(affected, func(a, b netip.Prefix) int {
		if c := a.Addr().Compare(b.Addr()); c != 0 {
			return c
		}
		return a.Bits() - b.Bits()
	})
	for _, extNet := range affected {
		st := s.resolvedExt[extNet]
		st.resolved, st.via, st.ok = s.resolve(st.orig)
		s.resolvedExt[extNet] = st
		s.reconcileTo(extNet, out)
	}
}

// desired computes what downstream should see for net.
func (s *ExtIntStage) desired(net netip.Prefix) (route.Entry, bool) {
	intE, intOK := s.int.Lookup(net)
	var extE route.Entry
	extOK := false
	if st, ok := s.resolvedExt[net]; ok && st.ok {
		extE, extOK = st.resolved, true
	}
	switch {
	case intOK && extOK:
		return betterEntry(extE, intE), true
	case intOK:
		return intE, true
	case extOK:
		return extE, true
	}
	return route.Entry{}, false
}

// reconcile diffs desired vs announced for net and emits the change.
func (s *ExtIntStage) reconcile(net netip.Prefix) {
	s.reconcileTo(net, stageSink{s.next})
}

// reconcileTo is reconcile with the emission target abstracted so batch
// paths can coalesce the output.
func (s *ExtIntStage) reconcileTo(net netip.Prefix, out opSink) {
	want, wantOK := s.desired(net)
	if wantOK {
		have, haveOK := s.announced.Upsert(net, want)
		switch {
		case !haveOK:
			out.Add(want)
		case !want.Equal(have):
			out.Replace(have, want)
		}
		return
	}
	if have, haveOK := s.announced.Delete(net); haveOK {
		out.Delete(have)
	}
}

// Add panics: use the parents.
func (s *ExtIntStage) Add(route.Entry) { panic("rib: ExtIntStage has adapter inputs") }

// Replace panics: use the parents.
func (s *ExtIntStage) Replace(_, _ route.Entry) { panic("rib: ExtIntStage has adapter inputs") }

// Delete panics: use the parents.
func (s *ExtIntStage) Delete(route.Entry) { panic("rib: ExtIntStage has adapter inputs") }

// Lookup implements Stage from the announced table.
func (s *ExtIntStage) Lookup(net netip.Prefix) (route.Entry, bool) {
	return s.announced.Get(net)
}

// LookupBest implements Stage from the announced table.
func (s *ExtIntStage) LookupBest(addr netip.Addr) (route.Entry, bool) {
	_, e, ok := s.announced.LongestMatch(addr)
	return e, ok
}

// AnnouncedLen reports the downstream view's size.
func (s *ExtIntStage) AnnouncedLen() int { return s.announced.Len() }

// ExternalRouteCount reports how many external routes the stage tracks.
// Internal-side origins may batch only while this is zero: the rescan
// that re-resolves dependent external routes reads the internal tables,
// and batching lets those tables run ahead of the announcement stream.
func (s *ExtIntStage) ExternalRouteCount() int { return len(s.resolvedExt) }
