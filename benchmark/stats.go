package main

import (
	"math"
	"sort"
	"time"
)

// samples collects the durations of one kind of timed operation.
type samples []time.Duration

// sum is the total time spent in the sampled operations.
func (s samples) sum() time.Duration {
	var t time.Duration
	for _, d := range s {
		t += d
	}
	return t
}

// percentileMs returns the p-th percentile (0 < p < 100, nearest rank) in
// milliseconds, 0 for an empty sample.
func (s samples) percentileMs(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append(samples(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return float64(sorted[rank-1]) / float64(time.Millisecond)
}

// tailPercentile is the percentile rule: the highest of the usual tail
// percentiles that still has at least ten samples beyond it, 0 when not
// even p75 does. 200 samples support p95, 1000 support p99.
func tailPercentile(n int) float64 {
	for _, c := range []struct {
		p    float64
		need int // samples for ten to lie beyond p
	}{{99.9, 10000}, {99, 1000}, {95, 200}, {90, 100}, {75, 40}} {
		if n >= c.need {
			return c.p
		}
	}
	return 0
}

// perSecond is count/d, 0 when nothing was timed.
func perSecond(count int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(count) / d.Seconds()
}

// ratio is a/b, 0 when b is 0 (a layer that did no work reports 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median of a small slice of float64s (0 when empty).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
