package main

import (
	"runtime"
	"time"

	"xorp/internal/fwd"
)

// fullload: the whole table as one bulk feed over the feed session, timed
// until the snapshot holds every route; then the session is closed and
// timed until the snapshot holds none of them (the peer-down flush).
// Loads and flushes alternate on one router for the measured seconds.

type fullloadConfig struct {
	routes int // table size
	setups int // assemblies timed for setup_s
}

var fullloadFull = fullloadConfig{routes: 146515, setups: 21}

func runFullload(cfg fullloadConfig, seed int64, seconds float64, obs *observer) (*result, error) {
	tbl := genTable(seed, cfg.routes)
	res := newResult()

	// Set-up is assembly plus the feed session coming up.
	fl, setups, err := setupRepeated(cfg.setups, func() (*fullloader, error) {
		tb, err := assemble()
		if err != nil {
			return nil, err
		}
		fl := &fullloader{tb: tb, tbl: tbl, res: res}
		if err := fl.connect(); err != nil {
			tb.stop()
			return nil, err
		}
		return fl, nil
	})
	if err != nil {
		return nil, err
	}
	defer fl.stop()

	// Warm-up cycle, checked but not timed: the first load in a process
	// pays for heap growth and first-touch map and trie allocation that
	// no later load repeats, and a router reloads after a session reset
	// far more often than it starts cold. It also measures the heap the
	// table holds.
	cold, ok := fl.cycle(true)
	if !ok {
		return res, nil
	}
	var loadRates, flushRates, cycleRates []float64
	var loadLat, flushLat latencies
	stop := obs.watch(fl.tb.loops(), fl.tb.registries())
	defer stop()
	start := time.Now()
	for len(cycleRates) == 0 || time.Since(start).Seconds() < seconds {
		c, ok := fl.cycle(false)
		if !ok {
			return res, nil
		}
		n := float64(cfg.routes)
		loadRates = append(loadRates, n/c.load.Seconds())
		flushRates = append(flushRates, n/c.flush.Seconds())
		cycleRates = append(cycleRates, 2*n/(c.load+c.flush).Seconds())
		loadLat.ms = append(loadLat.ms, c.loadLat...)
		flushLat.ms = append(flushLat.ms, c.flushLat...)
		res.note("fullload: cycle %d: load %.0f routes/s, flush %.0f routes/s", len(cycleRates),
			loadRates[len(loadRates)-1], flushRates[len(flushRates)-1])
	}
	install, err := loadLat.summary()
	if err != nil {
		return nil, err
	}
	flush, err := flushLat.summary()
	if err != nil {
		return nil, err
	}
	res.set("setup_s", median(setups), "s")
	res.set("ops_per_s", median(cycleRates), "1/s")
	res.set("p50_ms", install.p50, "ms")
	res.note("fullload: %d load/flush cycles of %d routes: load_routes_per_s=%.0f flush_routes_per_s=%.0f route changes/s=%.0f heap_bytes_per_route=%.0f",
		len(cycleRates), cfg.routes, median(loadRates), median(flushRates), median(cycleRates), cold.heapPerRoute)
	res.note("fullload: cold first load (not in the metrics) %.0f routes/s", float64(cfg.routes)/cold.load.Seconds())
	res.note("fullload: install latency %v", install)
	res.note("fullload: flush latency %v", flush)
	return res, nil
}

// fullloader runs load/flush cycles against one router.
type fullloader struct {
	tb   *testbed
	tbl  *fullTable
	res  *result
	sess *session
}

type cycleTimes struct {
	load, flush  time.Duration
	loadLat      []float64 // per-route ms from the start of the feed to installation
	flushLat     []float64 // per-route ms from session close to removal
	heapPerRoute float64
}

func (f *fullloader) stop() {
	f.sess.close()
	f.tb.stop()
}

func (f *fullloader) connect() error {
	s, err := openSession(f.tb, "feed", feedAddr, feedAS, nil)
	if err != nil {
		return err
	}
	f.sess = s
	return nil
}

// cycle loads the table, checks it, flushes it, checks the flush and
// reconnects; with heap set it also measures the heap the table holds.
// Every load starts from a collected heap. ok is false when a check
// failed (counted in res).
func (f *fullloader) cycle(heap bool) (c cycleTimes, ok bool) {
	n := len(f.tbl.routes)
	want := baseRoutes + n
	src := f.tb.src

	heapEmpty := heapInUse()
	t0 := time.Now()
	start := lenAt{t0, src.Current().Len()}
	if err := f.sess.write(f.tbl.feed); err != nil {
		f.res.fail(int64(n), "fullload: feed write: %v", err)
		return c, false
	}
	series, err := watchLen(src, start, want)
	if err != nil {
		f.res.fail(int64(n), "fullload: load: %v", err)
		return c, false
	}
	c.load = series[len(series)-1].at.Sub(t0)
	c.loadLat = changeLatencies(t0, series)
	if !f.checkLoaded(src.Current()) {
		return c, false
	}
	if heap {
		c.heapPerRoute = float64(int64(heapInUse())-int64(heapEmpty)) / float64(n)
	}

	t1 := time.Now()
	start = lenAt{t1, src.Current().Len()}
	if err := f.sess.close(); err != nil {
		f.res.fail(int64(n), "fullload: session ended before close: %v", err)
		return c, false
	}
	series, err = watchLen(src, start, baseRoutes)
	if err != nil {
		f.res.fail(int64(n), "fullload: flush: %v", err)
		return c, false
	}
	c.flush = series[len(series)-1].at.Sub(t1)
	c.flushLat = changeLatencies(t1, series)
	if !f.checkFlushed(src.Current()) {
		return c, false
	}
	if err := f.connect(); err != nil {
		f.res.fail(1, "fullload: reconnect: %v", err)
		return c, false
	}
	return c, true
}

// checkLoaded verifies the snapshot is exactly the generated table plus
// the base routes: every prefix with its nexthop, nothing extra.
func (f *fullloader) checkLoaded(s *fwd.Snapshot) bool {
	bad := int64(0)
	for i := range f.tbl.routes {
		r := &f.tbl.routes[i]
		if e, ok := s.Get(r.net); !ok || e.NextHop != gateways[r.nextHop] {
			bad++
		}
	}
	if extra := int64(s.Len() - baseRoutes - len(f.tbl.routes)); extra > 0 {
		bad += extra
	}
	f.res.count(int64(len(f.tbl.routes)), bad, "fullload: %d routes missing, wrong or extra after load", bad)
	return bad == 0
}

// checkFlushed verifies no feed route survived the peer-down flush.
func (f *fullloader) checkFlushed(s *fwd.Snapshot) bool {
	bad := int64(0)
	for i := range f.tbl.routes {
		if _, ok := s.Get(f.tbl.routes[i].net); ok {
			bad++
		}
	}
	f.res.count(int64(len(f.tbl.routes)), bad, "fullload: %d routes survived the flush", bad)
	return bad == 0
}

// changeLatencies expands a size series into one latency per route that
// arrived or left: the routes that changed between two polls are charged
// the later poll's time, measured from t0.
func changeLatencies(t0 time.Time, series []lenAt) []float64 {
	out := make([]float64, 0, abs(series[len(series)-1].n-series[0].n))
	for i := 1; i < len(series); i++ {
		ms := float64(series[i].at.Sub(t0)) / float64(time.Millisecond)
		for k := abs(series[i].n - series[i-1].n); k > 0; k-- {
			out = append(out, ms)
		}
	}
	return out
}

// heapInUse is the live heap after a full collection.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
