package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"xorp/internal/bgp"
	"xorp/internal/fwd"
)

// churn: the full table is preloaded during set-up; then an open loop
// replaces attributes of table routes on the feed session and announces
// and withdraws probe routes on the probe session (the Figure 12
// "different peering" case), while one fwd.Pool worker forwards a zipf
// stream over the table's prefixes. Every message has a due time fixed
// in advance; its latency counts from that due time, so a stalled router
// or a late generator shows as latency rather than as less load.
//
// Re-advertisement is timed from a probe announcement's due time until
// the feed session receives it. The other direction, replacements
// reaching the probe session, cannot be timed: the router stops all
// output to a peer once that peer's transport backlog has passed its
// 256 KiB high-water mark (Peer.updateBusy sets the fanout reader busy,
// and only a later UPDATE to that same peer would clear it), and the
// table transfer to the probe session always passes it. The run counts
// how many replacement re-advertisements the probe session did receive.

type churnConfig struct {
	routes    int
	setups    int
	replRate  float64       // attribute-change replacements/s, feed session
	probeRate float64       // probe announce/withdraw pairs/s, probe session
	probeHold time.Duration // a probe is withdrawn no sooner than this after its due time
	probes    int           // distinct probe prefixes, reused round-robin
}

var churnFull = churnConfig{
	routes: 146515, setups: 3,
	replRate: 2000, probeRate: 200, probeHold: 2 * time.Millisecond, probes: 512,
}

// churnPoll is how often the open loop polls the snapshot while a probe
// is in flight, bounding the error of each visibility time. Polling is by
// sleeping on the sleeper: spinning would starve the router, because a
// processor that never idles never steals the goroutines queued behind
// the forwarding worker.
const churnPoll = 25 * time.Microsecond

// drainWait bounds how long the end of a run waits for in-flight probes
// and re-advertisements.
const drainWait = 10 * time.Second

// replEvent is one scheduled replacement of table route idx.
type replEvent struct {
	due time.Duration
	idx int
	msg []byte
}

// probeEvent is one scheduled probe announcement.
type probeEvent struct {
	due      time.Duration
	net      netip.Prefix
	announce []byte
	withdraw []byte
}

// churnPlan is every input of one run, drawn from the seed before set-up.
type churnPlan struct {
	tbl    *fullTable
	repls  []replEvent
	probes []probeEvent
	lastNH []netip.Addr // each table route's BGP nexthop after all replacements
}

func planChurn(cfg churnConfig, seed int64, seconds float64) *churnPlan {
	p := &churnPlan{tbl: genTable(seed, cfg.routes)}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	p.lastNH = make([]netip.Addr, cfg.routes)
	for i := range p.tbl.routes {
		p.lastNH[i] = p.tbl.routes[i].nextHop
	}
	for k := 0; k < int(cfg.replRate*seconds); k++ {
		idx := rng.Intn(cfg.routes)
		r := p.tbl.routes[idx]
		for r.nextHop == p.lastNH[idx] {
			r.nextHop = tableNexthops[rng.Intn(len(tableNexthops))]
		}
		r.med, r.hasMED = uint32(rng.Intn(1000)), true
		p.lastNH[idx] = r.nextHop
		p.repls = append(p.repls, replEvent{
			due: every(k, cfg.replRate),
			idx: idx,
			msg: appendUpdate(nil, nil, &r, r.nlri()),
		})
	}
	half := every(1, 2*cfg.probeRate)
	for j := 0; j < int(cfg.probeRate*seconds); j++ {
		net := probePrefix(j % cfg.probes)
		r := genRoute{net: net, asPath: []uint16{probeAS}, nextHop: tableNexthops[j%len(tableNexthops)]}
		p.probes = append(p.probes, probeEvent{
			due:      half + every(j, cfg.probeRate),
			net:      net,
			announce: appendUpdate(nil, nil, &r, r.nlri()),
			withdraw: appendUpdate(nil, r.nlri(), nil, nil),
		})
	}
	return p
}

// every is the due time of the k-th event of a schedule at rate per second.
func every(k int, rate float64) time.Duration {
	return time.Duration(math.Round(float64(k) * float64(time.Second) / rate))
}

// probePrefix is the i-th probe /24 from 10.128.0.0/9, clear of the
// table and of the router's own routes.
func probePrefix(i int) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 128 + byte(i>>8), byte(i), 0}), 24)
}

// churnBed is a router with the table preloaded and both sessions up.
type churnBed struct {
	tb          *testbed
	assemble    time.Duration // assembly and start of the router
	sessionUp   time.Duration // feed session dial until Established
	feed, probe *session
	readv       *readverts   // probe announcements re-advertised to the feed session
	probeNLRI   atomic.Int64 // routes the probe session received
}

func (c *churnBed) stop() {
	c.feed.close()
	c.probe.close()
	c.tb.stop()
}

// setupChurn assembles a router, preloads the table over the feed
// session, then brings the probe session up and waits until the router
// has sent it the whole table, so that transfer is over before the
// measured phase.
func setupChurn(plan *churnPlan) (*churnBed, error) {
	t0 := time.Now()
	tb, err := assemble()
	if err != nil {
		return nil, err
	}
	c := &churnBed{tb: tb, readv: newReadverts(), assemble: time.Since(t0)}
	t1 := time.Now()
	if c.feed, err = openSession(tb, "feed", feedAddr, feedAS, c.readv.receive); err != nil {
		tb.stop()
		return nil, err
	}
	c.sessionUp = time.Since(t1)
	n := len(plan.tbl.routes)
	fail := func(err error) (*churnBed, error) {
		c.feed.close()
		if c.probe != nil {
			c.probe.close()
		}
		tb.stop()
		return nil, fmt.Errorf("churn set-up: %w", err)
	}
	if err := c.feed.write(plan.tbl.feed); err != nil {
		return fail(err)
	}
	if _, err := watchLen(tb.src, lenAt{time.Now(), tb.src.Current().Len()}, baseRoutes+n); err != nil {
		return fail(err)
	}
	countNLRI := func(msg []byte) {
		if m, err := bgp.DecodeMessage(msg); err == nil && m.Update != nil {
			c.probeNLRI.Add(int64(len(m.Update.NLRI)))
		}
	}
	if c.probe, err = openSession(tb, "probe", probeAddr, probeAS, countNLRI); err != nil {
		return fail(err)
	}
	if err := waitFor(drainWait, func() bool { return c.probeNLRI.Load() >= int64(n) }); err != nil {
		return fail(fmt.Errorf("probe session got %d of %d routes", c.probeNLRI.Load(), n))
	}
	return c, nil
}

// readverts matches the announcements a session receives to the ones
// sent on the other session, oldest first per prefix.
type readverts struct {
	mu         sync.Mutex
	tt         *timetable
	pending    map[netip.Prefix][]time.Duration // due times awaiting re-advertisement
	lat        latencies
	decodeErrs int
}

func newReadverts() *readverts {
	return &readverts{pending: make(map[netip.Prefix][]time.Duration)}
}

// start sets the timetable due times count in.
func (r *readverts) start(tt *timetable) {
	r.mu.Lock()
	r.tt = tt
	r.mu.Unlock()
}

// expect registers an announcement of net due at due.
func (r *readverts) expect(net netip.Prefix, due time.Duration) {
	r.mu.Lock()
	r.pending[net] = append(r.pending[net], due)
	r.mu.Unlock()
}

func (r *readverts) receive(msg []byte) {
	m, err := bgp.DecodeMessage(msg)
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil || m.Update == nil {
		r.decodeErrs++
		return
	}
	for _, net := range m.Update.NLRI {
		q := r.pending[net]
		if len(q) == 0 {
			continue
		}
		r.lat.add(r.tt.since(q[0]))
		if len(q) == 1 {
			delete(r.pending, net)
		} else {
			r.pending[net] = q[1:]
		}
	}
}

// outstanding reports the announcements not yet re-advertised and the
// UPDATEs that failed to decode.
func (r *readverts) outstanding() (missing, undecodable int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, q := range r.pending {
		missing += len(q)
	}
	return missing, r.decodeErrs
}

// probeState tracks one probe from announcement to disappearance.
type probeState struct {
	ev                 *probeEvent
	visible, withdrawn bool
}

func runChurn(cfg churnConfig, seed int64, seconds float64, obs *observer) (*result, error) {
	plan := planChurn(cfg, seed, seconds)
	res := newResult()
	c, setups, err := setupRepeated(cfg.setups, func() (*churnBed, error) { return setupChurn(plan) })
	if err != nil {
		return nil, err
	}
	defer c.stop()

	stream, err := fwd.NewStream(fwd.StreamConfig{Prefixes: plan.tbl.prefixes(), Dist: "zipf", Seed: seed})
	if err != nil {
		return nil, err
	}
	pool := fwd.NewPool(c.tb.src, stream, 1)
	probeNLRI0 := c.probeNLRI.Load()
	stop := obs.watch(c.tb.loops(), c.tb.registries())
	pool.Start()
	run := c.openLoop(cfg, plan, res, func() uint64 { return pool.Counters().Lookups })
	pool.Stop()
	stop()
	if run == nil {
		return res, nil
	}
	lookups := pool.Counters()
	res.count(int64(lookups.Lookups), int64(lookups.Drops), "churn: %d of %d lookups missed", lookups.Drops, lookups.Lookups)
	lookupRate := float64(run.lookups) / run.elapsed.Seconds()

	// The table's routes were only ever replaced: each must end up
	// present with the gateway of the nexthop it was last given, and
	// nothing else may remain. The last replacements may still be on
	// their way when the last probe has gone, so this waits for them.
	wrong := func() int64 {
		s := c.tb.src.Current()
		bad := int64(abs(s.Len() - baseRoutes - len(plan.tbl.routes)))
		for i := range plan.tbl.routes {
			if e, ok := s.Get(plan.tbl.routes[i].net); !ok || e.NextHop != gateways[plan.lastNH[i]] {
				bad++
			}
		}
		return bad
	}
	_ = waitFor(drainWait, func() bool { return wrong() == 0 })
	bad := wrong()
	res.count(int64(len(plan.tbl.routes)), bad, "churn: %d routes wrong or extra in the final snapshot", bad)

	prop, err := run.prop.summary()
	if err != nil {
		return nil, fmt.Errorf("churn: probe propagation: %w", err)
	}
	readv, err := c.readv.lat.summary()
	if err != nil {
		return nil, fmt.Errorf("churn: re-advertisement: %w", err)
	}
	late99, err := percentile(run.late.ms, 99)
	if err != nil {
		return nil, fmt.Errorf("churn: generator lateness: %w", err)
	}
	res.set("setup_s", median(setups), "s")
	res.set("ops_per_s", lookupRate, "1/s")
	res.set("p50_ms", prop.p50, "ms")
	res.note("churn: prop_p50_ms=%.3f prop_p99_ms=%.3f (n=%d) readvert_p50_ms=%.3f readvert_p99_ms=%.3f (n=%d) lookups_per_s=%.0f",
		prop.p50, prop.p99, prop.n, readv.p50, readv.p99, readv.n, lookupRate)
	res.note("churn: probe propagation %v; re-advertisement %v", prop, readv)
	res.note("churn: %d replacements at %.0f/s, %d probes at %.0f/s, generator lateness p99=%.3fms",
		len(plan.repls), cfg.replRate, len(plan.probes), cfg.probeRate, late99)
	res.layer["gen.late_p99_ms"] = late99
	res.layer["fwd.lookup_ns"] = lookups.Latency.Mean()
	res.layer["rtrmgr.assemble_s"] = c.assemble.Seconds()
	res.layer["bgp.session_up_ms"] = float64(c.sessionUp) / float64(time.Millisecond)
	res.note("churn: the probe session received %d of %d replacement re-advertisements (known router defect, see DESIGN.md)",
		c.probeNLRI.Load()-probeNLRI0, len(plan.repls))
	return res, nil
}

// loopRun is what the open loop measured.
type loopRun struct {
	elapsed time.Duration // from the first due time to the last
	lookups uint64        // forwarding lookups within elapsed
	prop    latencies     // probe due time -> visible in the snapshot
	late    latencies     // send time - due time, every message
}

// openLoop sends every planned message at its due time, watches the
// snapshot for the probes, and withdraws each probe once it has been
// seen and held. lookups samples the forwarding counter. It returns nil
// when a check failed.
func (c *churnBed) openLoop(cfg churnConfig, plan *churnPlan, res *result, lookups func() uint64) *loopRun {
	run := &loopRun{}
	var active []*probeState
	inUse := make(map[netip.Prefix]bool)
	ri, pi := 0, 0
	lastGen := uint64(0)
	end := every(len(plan.probes), cfg.probeRate)
	clk, err := newSleeper()
	if err != nil {
		res.fail(1, "churn: %v", err)
		return nil
	}
	defer clk.close()
	lookups0, ended := lookups(), false
	tt := newTimetable(time.Now)
	c.readv.start(tt)
	for ri < len(plan.repls) || pi < len(plan.probes) || len(active) > 0 {
		now := tt.at()
		if !ended && now >= end {
			run.lookups, run.elapsed, ended = lookups()-lookups0, now, true
		}
		if now > end+drainWait {
			res.fail(int64(len(active)), "churn: %d probes still in flight at the deadline", len(active))
			return nil
		}
		for ; ri < len(plan.repls) && plan.repls[ri].due <= now; ri++ {
			ev := &plan.repls[ri]
			if err := c.feed.write(ev.msg); err != nil {
				res.fail(1, "churn: feed write: %v", err)
				return nil
			}
			run.late.add(tt.since(ev.due))
		}
		for ; pi < len(plan.probes) && plan.probes[pi].due <= now; pi++ {
			ev := &plan.probes[pi]
			if inUse[ev.net] {
				res.fail(1, "churn: probe %v reused before it disappeared", ev.net)
				return nil
			}
			inUse[ev.net] = true
			c.readv.expect(ev.net, ev.due)
			if err := c.probe.write(ev.announce); err != nil {
				res.fail(1, "churn: probe write: %v", err)
				return nil
			}
			run.late.add(tt.since(ev.due))
			active = append(active, &probeState{ev: ev})
		}
		if s := c.tb.src.Current(); s.Gen() != lastGen {
			lastGen = s.Gen()
			kept := active[:0]
			for _, p := range active {
				_, present := s.Get(p.ev.net)
				switch {
				case !p.visible && present:
					p.visible = true
					run.prop.add(tt.since(p.ev.due))
				case p.withdrawn && !present:
					delete(inUse, p.ev.net)
					res.count(2, 0, "")
					continue
				}
				kept = append(kept, p)
			}
			active = kept
		}
		if ri == len(plan.repls) && pi == len(plan.probes) && len(active) == 0 {
			break
		}
		// Sleep until the next due message or probe withdrawal; poll
		// every churnPoll only while a probe is waiting to appear or to
		// go. Each wake-up takes CPU from the router, so there are no
		// more than the schedule needs.
		now = tt.at()
		wake := end + drainWait
		if ri < len(plan.repls) {
			wake = min(wake, plan.repls[ri].due)
		}
		if pi < len(plan.probes) {
			wake = min(wake, plan.probes[pi].due)
		}
		for _, p := range active {
			switch {
			case !p.visible || p.withdrawn:
				wake = min(wake, now+churnPoll)
			case now >= p.ev.due+cfg.probeHold:
				p.withdrawn = true
				if err := c.probe.write(p.ev.withdraw); err != nil {
					res.fail(1, "churn: probe write: %v", err)
					return nil
				}
				wake = min(wake, now+churnPoll)
			default:
				wake = min(wake, p.ev.due+cfg.probeHold)
			}
		}
		if d := wake - tt.at(); d > 0 {
			if err := clk.sleep(d); err != nil {
				res.fail(1, "churn: %v", err)
				return nil
			}
		}
	}
	if !ended {
		run.lookups, run.elapsed = lookups()-lookups0, tt.at()
	}
	_ = waitFor(drainWait, func() bool { m, _ := c.readv.outstanding(); return m == 0 })
	missing, undecodable := c.readv.outstanding()
	res.count(int64(len(plan.repls)+len(plan.probes)), int64(missing+undecodable),
		"churn: %d probes never re-advertised, %d undecodable UPDATEs", missing, undecodable)
	if missing+undecodable > 0 {
		return nil
	}
	return run
}
