package main

import (
	"fmt"
	"math"
	"slices"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer is noise, so it is refused.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// xs: the smallest sample with at least p% of the samples at or below it.
// It refuses when fewer than minBeyond samples lie beyond that rank.
// xs is sorted in place.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v out of (0,100)", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, need %d", p, n, max(n-rank, 0), minBeyond)
	}
	slices.Sort(xs)
	return xs[rank-1], nil
}

// median is the middle value of a small set of repeats (mean of the two
// middle values for an even count). xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// latencies collects one distribution of per-operation times in ms.
type latencies struct{ ms []float64 }

func (l *latencies) add(ms float64) { l.ms = append(l.ms, ms) }

// dist is a latency distribution's summary.
type dist struct {
	p50, p90, p99 float64
	n             int
}

func (d dist) String() string {
	return fmt.Sprintf("p50=%.3fms p90=%.3fms p99=%.3fms (n=%d)", d.p50, d.p90, d.p99, d.n)
}

// summary returns the median, the 90th and 99th percentiles and the
// sample count.
func (l *latencies) summary() (d dist, err error) {
	d.n = len(l.ms)
	if d.p50, err = percentile(l.ms, 50); err != nil {
		return d, err
	}
	if d.p90, err = percentile(l.ms, 90); err != nil {
		return d, err
	}
	d.p99, err = percentile(l.ms, 99)
	return d, err
}
