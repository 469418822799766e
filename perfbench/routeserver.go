package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"xorp/internal/bgp"
	"xorp/internal/eventloop"
)

// routeserver: many peers feeding one BGP pipeline through one peer
// group, so every route goes out to every other member. A hundred TCP
// sessions would exceed the benchmark's connection budget, so the route
// server is assembled from the bgp package's public stage constructors
// (PeerIn -> nexthop resolver -> Decision -> Fanout -> shared export
// filter -> GroupOut) on one event loop that the benchmark drives. It is
// a closed loop: inject one UPDATE round-robin over the peers, drain the
// loop, repeat; each cycle announces every feed, checks what each member
// was told, then withdraws every feed.

type rsConfig struct {
	peers    int
	perPeer  int // routes each peer feeds
	perMsg   int // NLRI per UPDATE
	attrSets int // distinct attribute sets per peer
	setups   int
}

var rsFull = rsConfig{peers: 100, perPeer: 1024, perMsg: 64, attrSets: 16, setups: 21}

const rsLocalAS = 64999

var rsLocalAddr = netip.MustParseAddr("192.0.2.1")

// rsFeeds is every peer's announcements and withdrawals, drawn from the
// seed: unique prefixes (every fifth UPDATE IPv6) packed perMsg to an
// UPDATE, cycling through the peer's attribute sets.
type rsFeeds struct {
	announce, withdraw [][]*bgp.UpdateMsg // [peer][msg]
}

func rsHandle(p int) *bgp.PeerHandle {
	return &bgp.PeerHandle{
		Name: fmt.Sprintf("rs%03d", p),
		Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(10 + p%240)}),
		AS:   uint16(65000 + p),
	}
}

func genRSFeeds(cfg rsConfig, seed int64) *rsFeeds {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[netip.Prefix]bool)
	fresh := func(v6 bool) netip.Prefix {
		for {
			var p netip.Prefix
			if v6 {
				var b [16]byte
				b[0], b[1] = 0x20, 0x01
				rng.Read(b[2:6])
				p = netip.PrefixFrom(netip.AddrFrom16(b), 48)
			} else {
				a := netip.AddrFrom4([4]byte{byte(11 + rng.Intn(100)), byte(rng.Intn(256)), byte(rng.Intn(256)), 0})
				p = netip.PrefixFrom(a, 20+rng.Intn(5)).Masked()
			}
			if !seen[p] {
				seen[p] = true
				return p
			}
		}
	}
	f := &rsFeeds{announce: make([][]*bgp.UpdateMsg, cfg.peers), withdraw: make([][]*bgp.UpdateMsg, cfg.peers)}
	for p := 0; p < cfg.peers; p++ {
		h := rsHandle(p)
		sets := make([]*bgp.PathAttrs, cfg.attrSets)
		for s := range sets {
			path := []uint16{h.AS}
			for k := rng.Intn(3); k >= 0; k-- {
				path = append(path, uint16(1+rng.Intn(64000)))
			}
			sets[s] = &bgp.PathAttrs{
				Origin:  uint8(rng.Intn(3)),
				ASPath:  bgp.ASPath{{Type: bgp.SegSequence, ASes: path}},
				NextHop: h.Addr,
				MED:     uint32(rng.Intn(100)),
				HasMED:  s%2 == 1,
			}
		}
		for m := 0; m*cfg.perMsg < cfg.perPeer; m++ {
			nlri := make([]netip.Prefix, 0, cfg.perMsg)
			for i := m * cfg.perMsg; i < min((m+1)*cfg.perMsg, cfg.perPeer); i++ {
				nlri = append(nlri, fresh(m%5 == 4))
			}
			f.announce[p] = append(f.announce[p], &bgp.UpdateMsg{Attrs: sets[m%cfg.attrSets], NLRI: nlri})
			f.withdraw[p] = append(f.withdraw[p], &bgp.UpdateMsg{Withdrawn: nlri})
		}
	}
	return f
}

// rsMember is one route-server client.
type rsMember struct {
	handle *bgp.PeerHandle
	in     *bgp.PeerIn
}

// rsBed is one assembled route server.
type rsBed struct {
	loop    *eventloop.Loop
	group   *bgp.GroupOut
	pool    *bgp.AttrPool
	members []*rsMember
}

func (b *rsBed) stop() {}

func buildRouteServer(cfg rsConfig) (*rsBed, error) {
	b := &rsBed{loop: eventloop.New(nil), pool: bgp.NewAttrPool(), group: bgp.NewGroupOut("rs")}
	dec := bgp.NewDecision("decision")
	fan := bgp.NewFanout("fanout", b.loop)
	bgp.Plumb(dec, fan)
	export := bgp.NewFilterBank("out-filter(group:rs)", bgp.FilterEBGPExport(rsLocalAS, rsLocalAddr))
	bgp.Plumb(export, b.group)
	fan.AddGroupBranch("group:rs", export)
	for p := 0; p < cfg.peers; p++ {
		m := &rsMember{handle: rsHandle(p)}
		m.in = bgp.NewPeerIn(b.loop, m.handle, b.pool)
		resolver := bgp.NewNexthopResolver("nexthop("+m.handle.Name+")", &bgp.StaticMetricSource{})
		bgp.Plumb(m.in, resolver)
		dec.AddParent(resolver)
		// The group counts what it sends; the members' transports are
		// outside the measurement.
		if err := b.group.AddMember(m.handle, bgp.GroupSenderFunc(func([]byte) {})); err != nil {
			return nil, err
		}
		b.members = append(b.members, m)
	}
	return b, nil
}

// inject delivers msgs round-robin over the peers, draining the loop
// after each UPDATE, and records each UPDATE's latency.
func (b *rsBed) inject(msgs [][]*bgp.UpdateMsg, lat *latencies) {
	for i := 0; ; i++ {
		sent := false
		for p, feed := range msgs {
			if i >= len(feed) {
				continue
			}
			t0 := time.Now()
			b.members[p].in.ReceiveUpdate(feed[i], rsLocalAS)
			b.loop.RunPending()
			lat.add(float64(time.Since(t0)) / float64(time.Millisecond))
			sent = true
		}
		if !sent {
			return
		}
	}
}

// check verifies every member has been announced want(member) routes.
func (b *rsBed) check(res *result, phase string, want func(*rsMember) int) bool {
	bad := int64(0)
	for _, m := range b.members {
		if b.group.MemberAnnouncedCount(m.handle) != want(m) {
			bad++
		}
	}
	res.count(int64(len(b.members)), bad, "routeserver: after %s, %d members hold the wrong route count", phase, bad)
	return bad == 0
}

func runRouteServer(cfg rsConfig, seed int64, seconds float64, obs *observer) (*result, error) {
	feeds := genRSFeeds(cfg, seed)
	res := newResult()
	b, setups, err := setupRepeated(cfg.setups, func() (*rsBed, error) { return buildRouteServer(cfg) })
	if err != nil {
		return nil, err
	}
	total := cfg.peers * cfg.perPeer
	// One cycle: announce all, check that every member was told every
	// route but its own, withdraw all, check that nothing is left.
	cycle := func(lat *latencies) bool {
		b.inject(feeds.announce, lat)
		if !b.check(res, "announce", func(*rsMember) int { return total - cfg.perPeer }) {
			return false
		}
		b.inject(feeds.withdraw, lat)
		return b.check(res, "withdraw", func(*rsMember) int { return 0 })
	}
	// The first cycle grows the pool, the tables and the encode buffers;
	// it is checked but not timed.
	if !cycle(&latencies{}) {
		return res, nil
	}
	var lat latencies
	var rates []float64
	encodes0, bytes0 := b.group.EncodeCalls, b.group.SentBytes
	stop := obs.watch(map[string]*eventloop.Loop{"bgp": b.loop}, nil)
	defer stop()
	start := time.Now()
	for len(rates) == 0 || time.Since(start).Seconds() < seconds {
		t0 := time.Now()
		if !cycle(&lat) {
			return res, nil
		}
		rates = append(rates, float64(2*total)/time.Since(t0).Seconds())
	}
	d, err := lat.summary()
	if err != nil {
		return nil, err
	}
	routes := float64(2 * total * len(rates))
	res.set("setup_s", median(setups), "s")
	res.set("ops_per_s", median(rates), "1/s")
	res.set("p50_ms", d.p50, "ms")
	res.note("routeserver: %d cycles of %d peers x %d routes announced then withdrawn; rs_routes_per_s=%.0f",
		len(rates), cfg.peers, cfg.perPeer, median(rates))
	res.note("routeserver: per-UPDATE latency %v; %.3f encodes and %.1f bytes per route change, %d attr sets pooled",
		d, float64(b.group.EncodeCalls-encodes0)/routes, float64(b.group.SentBytes-bytes0)/routes, b.pool.Len())
	return res, nil
}
