// Command perfbench is the router's end-to-end benchmark. It assembles
// the router from outside (rtrmgr.NewRouter and Start), speaks real BGP
// to it over loopback TCP, reads forwarding state only through the
// published snapshots, and prints one JSON result line. See DESIGN.md.
//
//	go run . --workload fullload --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// runFunc is one full-size run; obs is nil for a plain run.
type runFunc func(seed int64, seconds float64, obs *observer) (*result, error)

var workloads = map[string]runFunc{
	"fullload": func(seed int64, s float64, o *observer) (*result, error) {
		return runFullload(fullloadFull, seed, s, o)
	},
	"churn": func(seed int64, s float64, o *observer) (*result, error) {
		return runChurn(churnFull, seed, s, o)
	},
	"routeserver": func(seed int64, s float64, o *observer) (*result, error) {
		return runRouteServer(rsFull, seed, s, o)
	},
	"xrl": func(seed int64, s float64, o *observer) (*result, error) {
		return runXRL(xrlFull, seed, s, o)
	},
}

func main() {
	name := flag.String("workload", "", "fullload, churn, routeserver or xrl")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Float64("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%d GOMAXPROCS=%d NumCPU=%d %s\n",
		*name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(*name, run, *seed, *seconds)
	} else {
		res, err = run(*seed, *seconds, nil)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, n := range res.notes {
		fmt.Println(n)
	}
	out, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if res.failed > 0 {
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result accumulates one run: operations attempted and failed by the
// correctness checks, the metrics, per-layer figures a traced run
// reports, and human-readable notes.
type result struct {
	attempted, failed int64
	metrics           map[string]metric
	layer             map[string]float64
	notes             []string
}

func newResult() *result { return &result{metrics: map[string]metric{}, layer: map[string]float64{}} }

func (r *result) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// count records a check over attempted operations of which failed went
// wrong; a failure is also noted.
func (r *result) count(attempted, failed int64, format string, args ...any) {
	r.attempted += attempted
	r.failed += failed
	if failed > 0 {
		r.note("FAIL "+format, args...)
	}
}

// fail records attempted operations that all failed.
func (r *result) fail(attempted int64, format string, args ...any) {
	r.count(attempted, max(attempted, 1), format, args...)
}

// merge adds another run's checks and notes to r.
func (r *result) merge(prefix string, o *result) {
	r.attempted += o.attempted
	r.failed += o.failed
	for _, n := range o.notes {
		r.notes = append(r.notes, prefix+n)
	}
}

// summary is the result line. A run whose checks failed, or that checked
// nothing, reports the failure and no numbers.
func (r *result) summary() map[string]any {
	if r.attempted == 0 {
		r.fail(1, "no operation was checked")
	}
	metrics := r.metrics
	if r.failed > 0 {
		metrics = map[string]metric{}
	}
	return map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	}
}

// setupRepeated runs build n times, timing each, keeps the last result
// and stops the others. Set-up varies with what the process has already
// allocated, so setup_s is the median of the n, and each starts from a
// collected heap. The heap is collected once more after the last, so the
// measured phase does not pay for the discarded set-ups' garbage.
func setupRepeated[T interface{ stop() }](n int, build func() (T, error)) (T, []float64, error) {
	var times []float64
	var cur T
	defer runtime.GC()
	for i := 0; i < n; i++ {
		if i > 0 {
			cur.stop()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if cur, err = build(); err != nil {
			return cur, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return cur, times, nil
}
