package main

import (
	"bufio"
	"bytes"
	"net/netip"
	"slices"
	"testing"
	"time"

	"xorp/internal/bgp"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // reversed: percentile must sort
		}
		return out
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
	}{
		{100, 50, 50},
		{101, 50, 51},
		{1000, 99, 990},
		{20, 50, 10},
	} {
		got, err := percentile(xs(tc.n), tc.p)
		if err != nil || got != tc.want {
			t.Errorf("p%v of 1..%d = %v, %v; want %v", tc.p, tc.n, got, err, tc.want)
		}
	}
	// A p99 needs ten samples beyond its rank: 1000 has exactly ten,
	// 999 has nine.
	if _, err := percentile(xs(999), 99); err == nil {
		t.Error("p99 of 999 samples accepted with 9 beyond it")
	}
	if _, err := percentile(xs(19), 50); err == nil {
		t.Error("p50 of 19 samples accepted with 9 beyond it")
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("percentile of no samples accepted")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

// Every message the generator frames must decode through the router's
// own decoder to exactly what the generator meant.
func TestFramingRoundTrip(t *testing.T) {
	id := netip.MustParseAddr("127.0.0.2")
	m, err := bgp.DecodeMessage(appendOpen(nil, feedAS, holdTime, id))
	if err != nil || m.Open == nil || m.Open.AS != feedAS || m.Open.HoldTime != holdTime ||
		m.Open.BGPID != id || m.Open.Version != 4 {
		t.Fatalf("OPEN decoded to %+v, %v", m, err)
	}
	if m, err := bgp.DecodeMessage(appendKeepalive(nil)); err != nil || !m.Keepalive {
		t.Fatalf("KEEPALIVE decoded to %+v, %v", m, err)
	}
	withdraw := []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8"), netip.MustParsePrefix("192.0.2.128/25")}
	m, err = bgp.DecodeMessage(appendUpdate(nil, withdraw, nil, nil))
	if err != nil || m.Update == nil || !slices.Equal(m.Update.Withdrawn, withdraw) || len(m.Update.NLRI) != 0 {
		t.Fatalf("withdrawal decoded to %+v, %v", m, err)
	}

	// The full-table feed: a concatenated stream the reader must frame.
	tbl := genTable(7, 3000)
	rd := bufio.NewReader(bytes.NewReader(tbl.feed))
	for i := range tbl.routes {
		typ, msg, err := readMsg(rd, nil)
		if err != nil || typ != msgUpdate {
			t.Fatalf("message %d: type %d, %v", i, typ, err)
		}
		m, err := bgp.DecodeMessage(msg)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		r, u := &tbl.routes[i], m.Update
		var path []uint16
		for _, seg := range u.Attrs.ASPath {
			path = append(path, seg.ASes...)
		}
		if !slices.Equal(u.NLRI, r.nlri()) || u.Attrs.NextHop != r.nextHop || u.Attrs.Origin != r.origin ||
			u.Attrs.HasMED != r.hasMED || u.Attrs.MED != r.med || !slices.Equal(path, r.asPath) {
			t.Fatalf("message %d decoded to %+v %+v, want %+v", i, u, u.Attrs, r)
		}
	}
	if _, _, err := readMsg(rd, nil); err == nil {
		t.Fatal("feed has messages beyond the table")
	}
}

// fakeClock is a settable time source.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }

func TestTimetableCountsFromDueTime(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	tt := newTimetable(clk.now)
	// The generator oversleeps to 5 ms: three events due at 0, 1 and 2 ms
	// all go now, each late by its own distance from its due time.
	clk.t = clk.t.Add(5 * time.Millisecond)
	var late []float64
	for _, due := range []time.Duration{0, time.Millisecond, 2 * time.Millisecond} {
		late = append(late, tt.since(due))
	}
	if !slices.Equal(late, []float64{5, 4, 3}) {
		t.Errorf("lateness = %v, want [5 4 3]", late)
	}
	// The event due at 2 ms completes at 7 ms: its latency is 5 ms, the
	// 3 ms it waited to be sent included.
	clk.t = clk.t.Add(2 * time.Millisecond)
	if got := tt.since(2 * time.Millisecond); got != 5 {
		t.Errorf("latency = %v, want 5", got)
	}
}

func TestChurnPlanIsOnSchedule(t *testing.T) {
	cfg := churnConfig{routes: 500, replRate: 1000, probeRate: 100, probes: 8}
	p := planChurn(cfg, 3, 2)
	if len(p.repls) != 2000 || len(p.probes) != 200 {
		t.Fatalf("%d replacements and %d probes, want 2000 and 200", len(p.repls), len(p.probes))
	}
	for k, ev := range p.repls {
		if want := time.Duration(k) * time.Millisecond; ev.due != want {
			t.Fatalf("replacement %d due %v, want %v", k, ev.due, want)
		}
	}
	for j, ev := range p.probes {
		if want := 5*time.Millisecond + time.Duration(j)*10*time.Millisecond; ev.due != want {
			t.Fatalf("probe %d due %v, want %v", j, ev.due, want)
		}
	}
	// Replacements always change the nexthop, and the plan knows each
	// route's last one.
	last := make([]netip.Addr, cfg.routes)
	for i := range p.tbl.routes {
		last[i] = p.tbl.routes[i].nextHop
	}
	for _, ev := range p.repls {
		m, err := bgp.DecodeMessage(ev.msg)
		if err != nil {
			t.Fatal(err)
		}
		if nh := m.Update.Attrs.NextHop; nh == last[ev.idx] {
			t.Fatalf("replacement of route %d keeps nexthop %v", ev.idx, nh)
		} else {
			last[ev.idx] = nh
		}
	}
	if !slices.Equal(last, p.lastNH) {
		t.Error("plan's last nexthops disagree with its replacements")
	}
	// Same seed, same inputs.
	q := planChurn(cfg, 3, 2)
	for k := range p.repls {
		if !bytes.Equal(p.repls[k].msg, q.repls[k].msg) {
			t.Fatalf("replacement %d differs between two plans from one seed", k)
		}
	}
}

func TestReadvertsMatchOldestFirst(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	r := newReadverts()
	r.start(newTimetable(clk.now))
	net := probePrefix(3)
	route := genRoute{net: net, asPath: []uint16{localAS, probeAS}, nextHop: tableNexthops[0]}
	r.expect(net, time.Millisecond)
	r.expect(net, 4*time.Millisecond)
	clk.t = clk.t.Add(6 * time.Millisecond)
	r.receive(appendUpdate(nil, nil, &route, route.nlri()))
	if missing, bad := r.outstanding(); missing != 1 || bad != 0 {
		t.Fatalf("outstanding = %d, %d; want 1, 0", missing, bad)
	}
	clk.t = clk.t.Add(time.Millisecond)
	r.receive(appendUpdate(nil, nil, &route, route.nlri()))
	r.receive([]byte("not a BGP message"))
	if !slices.Equal(r.lat.ms, []float64{5, 3}) {
		t.Errorf("latencies = %v, want [5 3]", r.lat.ms)
	}
	if missing, bad := r.outstanding(); missing != 0 || bad != 1 {
		t.Errorf("outstanding = %d, %d; want 0, 1", missing, bad)
	}
}

func TestSpanSelfTime(t *testing.T) {
	l := newSpanLog(16)
	l.call("outer", 1, func() {
		time.Sleep(2 * time.Millisecond)
		l.call("inner", 1, func() { time.Sleep(5 * time.Millisecond) })
	})
	st := l.stats()
	if st["outer"].calls != 1 || st["inner"].calls != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if in, out := st["inner"].selfNs, st["outer"].selfNs; in < int64(5*time.Millisecond) ||
		out < int64(2*time.Millisecond) || out >= int64(5*time.Millisecond) {
		t.Errorf("self times inner %v outer %v", time.Duration(in), time.Duration(out))
	}
	if l.spans[1].parent != 0 || l.spans[0].parent != -1 || l.spans[1].batch != 1 {
		t.Errorf("spans = %+v", l.spans)
	}
}

// checked fails the test unless a run checked something and nothing
// failed, and returns its metrics.
func checked(t *testing.T, res *result, err error) map[string]metric {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range res.notes {
		t.Log(n)
	}
	if res.attempted == 0 || res.failed != 0 {
		t.Fatalf("attempted %d, failed %d", res.attempted, res.failed)
	}
	return res.metrics
}

func requireEndToEnd(t *testing.T, m map[string]metric) {
	t.Helper()
	for _, name := range []string{"setup_s", "ops_per_s", "p50_ms"} {
		if v, ok := m[name]; !ok || !(v.Value > 0) {
			t.Errorf("%s = %+v", name, v)
		}
	}
}

func TestSmokeFullload(t *testing.T) {
	res, err := runFullload(fullloadConfig{routes: 3000, setups: 2}, 1, 0.2, nil)
	requireEndToEnd(t, checked(t, res, err))
}

func TestSmokeChurn(t *testing.T) {
	cfg := churnConfig{routes: 3000, setups: 1, replRate: 1000, probeRate: 1000,
		probeHold: time.Millisecond, probes: 512}
	res, err := runChurn(cfg, 1, 1.2, newObserver())
	requireEndToEnd(t, checked(t, res, err))
	for _, name := range []string{"gen.late_p99_ms", "fwd.lookup_ns", "rtrmgr.assemble_s", "bgp.session_up_ms"} {
		if _, ok := res.layer[name]; !ok {
			t.Errorf("churn did not report %s", name)
		}
	}
}

func TestSmokeRouteServer(t *testing.T) {
	res, err := runRouteServer(rsConfig{peers: 10, perPeer: 128, perMsg: 16, attrSets: 4, setups: 2}, 1, 0.6, nil)
	requireEndToEnd(t, checked(t, res, err))
}

func TestSmokeXRL(t *testing.T) {
	res, err := runXRL(xrlConfig{args: 5, window: 100, setups: 2}, 1, 0.3, newObserver())
	requireEndToEnd(t, checked(t, res, err))
}

func TestSmokeReplay(t *testing.T) {
	res := newResult()
	out, err := replayLayers(1, 3000, res, "")
	checked(t, res, err)
	for _, m := range perLayer {
		if _, ok := out[m.name]; !ok && !inSitu(m.name) {
			t.Errorf("replay did not report %s", m.name)
		}
	}
}

// inSitu reports whether a per-layer metric comes from the live traced
// runs rather than the replay.
func inSitu(name string) bool {
	switch name {
	case "trace.overhead_pct", "trace.overhead_p50_pct", "fwd.lookup_ns", "fwd.snapshot_gens_per_s",
		"bgp.loop_wait_p99_ms", "rib.loop_wait_p99_ms", "fea.loop_wait_p99_ms",
		"bgp.updates_per_s", "rib.route_events_per_s", "fea.fib_writes_per_s",
		"rtrmgr.assemble_s", "bgp.session_up_ms", "gen.late_p99_ms":
		return true
	}
	return false
}
