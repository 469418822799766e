package main

import (
	"fmt"
	"path/filepath"
	"strings"
)

// The traced run (--trace 1) reports the per-layer metrics:
//
//  1. the workload twice, for half the run each, plain and with an
//     observer probing its loops and scraping its processes' counters;
//     the difference in its end-to-end figures is the tracing overhead;
//  2. a churn run with the observer, for the figures that exist only on
//     the live router under load: loop queue waits, snapshot generations
//     per second, lookup time, the generator's lateness, assembly and
//     session set-up, and the scraped counter rates;
//  3. the layer-by-layer replay of the seed's inputs (replay.go).
//
// Parts 2 and 3 are the same for every workload, so every per-layer
// metric is reported on every workload.

// perLayer lists every per-layer metric with its unit.
var perLayer = []struct{ name, unit string }{
	{"trace.overhead_pct", "%"},
	{"trace.overhead_p50_pct", "%"},
	{"bgp.decode_ns_per_route", "ns"},
	{"bgp.in_ns_per_route", "ns"},
	{"bgp.in_allocs_per_route", "count"},
	{"bgp.out_ns_per_route", "ns"},
	{"bgp.out_allocs_per_route", "count"},
	{"bgp.out_encodes_per_route", "count"},
	{"bgp.out_bytes_per_route", "B"},
	{"xipc.hop_ns_per_route", "ns"},
	{"xipc.routes_per_xrl", "count"},
	{"xrl.allocs_per_call", "count"},
	{"xipc.syscalls_per_call", "count"},
	{"rib.ns_per_route", "ns"},
	{"rib.allocs_per_route", "count"},
	{"rib.fib_ops_per_route", "count"},
	{"rib.routes_per_fib_batch", "count"},
	{"fea.ns_per_op", "ns"},
	{"fea.allocs_per_op", "count"},
	{"fwd.publish_ns_per_op", "ns"},
	{"fwd.publish_allocs_per_op", "count"},
	{"fwd.ops_per_publish", "count"},
	{"fwd.lookup_ns", "ns"},
	{"fwd.snapshot_gens_per_s", "1/s"},
	{"bgp.loop_wait_p99_ms", "ms"},
	{"rib.loop_wait_p99_ms", "ms"},
	{"fea.loop_wait_p99_ms", "ms"},
	{"bgp.updates_per_s", "1/s"},
	{"rib.route_events_per_s", "1/s"},
	{"fea.fib_writes_per_s", "1/s"},
	{"rtrmgr.assemble_s", "s"},
	{"bgp.session_up_ms", "ms"},
	{"gen.late_p99_ms", "ms"},
}

// inSituSeconds is the measured length of the traced churn run: enough
// probes for the p99 of the prop latency it also reports.
const inSituSeconds = 6

var churnInSitu = func() churnConfig { c := churnFull; c.setups = 1; return c }()

func runTraced(name string, run runFunc, seed int64, seconds float64) (*result, error) {
	res := newResult()
	layer := map[string]float64{}

	plain, err := run(seed, seconds/2, nil)
	if err != nil {
		return nil, err
	}
	res.merge("plain: ", plain)
	obs := newObserver()
	traced, err := run(seed, seconds/2, obs)
	if err != nil {
		return nil, err
	}
	res.merge("traced: ", traced)
	if res.failed > 0 {
		return res, nil
	}
	po, to := plain.metrics["ops_per_s"].Value, traced.metrics["ops_per_s"].Value
	pp, tp := plain.metrics["p50_ms"].Value, traced.metrics["p50_ms"].Value
	layer["trace.overhead_pct"] = 100 * (po - to) / po
	layer["trace.overhead_p50_pct"] = 100 * (tp - pp) / pp
	res.note("trace: %s ops_per_s plain %.6g traced %.6g, p50_ms plain %.4g traced %.4g", name, po, to, pp, tp)
	for _, l := range obs.loops() {
		if w, n, err := obs.loopWaitP99(l); err == nil {
			res.note("trace: %s loop %s queue wait p99 %.3fms (n=%d)", name, l, w, n)
		}
	}

	obs = newObserver()
	ins, err := runChurn(churnInSitu, seed, inSituSeconds, obs)
	if err != nil {
		return nil, fmt.Errorf("traced churn: %w", err)
	}
	res.merge("in-situ: ", ins)
	for k, v := range ins.layer {
		layer[k] = v
	}
	for _, l := range []string{"bgp", "rib", "fea"} {
		w, _, err := obs.loopWaitP99(l)
		if err != nil {
			return nil, fmt.Errorf("traced churn: %s loop: %w", l, err)
		}
		layer[l+".loop_wait_p99_ms"] = w
	}
	res.note("in-situ: scraped %s", strings.Join(obs.scrapes(), ", "))
	layer["fwd.snapshot_gens_per_s"] = obs.rate("fea_snapshot_gen")
	layer["bgp.updates_per_s"] = obs.rate("bgp_updates_total")
	layer["rib.route_events_per_s"] = obs.rate("rib_route_events_total")
	layer["fea.fib_writes_per_s"] = obs.rate("fea_fib_writes_total")

	spans := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.spans.csv.gz", name, seed))
	rep, err := replayLayers(seed, fullloadFull.routes, res, spans)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	for k, v := range rep {
		layer[k] = v
	}
	if res.failed > 0 {
		return res, nil
	}
	for _, m := range perLayer {
		v, ok := layer[m.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
		res.set(m.name, v, m.unit)
	}
	return res, nil
}
