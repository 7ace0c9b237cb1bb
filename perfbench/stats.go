package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile of raw samples: the
// smallest sample with at least ⌈q·n⌉ samples at or below it. Percentiles
// are always taken from the raw per-search samples, never from a bucketed
// histogram. It returns 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// mean is the arithmetic mean of xs, 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median is the nearest-rank 0.5-quantile.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// callMedians takes the latencies of episodes that send the same calls in
// the same order, episode by episode, and returns each call's median
// latency over the episodes that completed it (NaN marks a failed call). A
// percentile over these is the latency of a typical episode's searches: a
// stall or a slow stretch of the host that hits fewer than half of the
// episodes does not reach it, as it would reach a percentile of the pooled
// samples.
func callMedians(eps [][]float64) []float64 {
	if len(eps) == 0 {
		return nil
	}
	out := make([]float64, 0, len(eps[0]))
	col := make([]float64, 0, len(eps))
	for i := range eps[0] {
		col = col[:0]
		for _, lat := range eps {
			if !math.IsNaN(lat[i]) {
				col = append(col, lat[i])
			}
		}
		if len(col) > 0 {
			out = append(out, median(col))
		}
	}
	return out
}

// failedFrac is the share of attempted searches that failed: errors, sheds
// and wrong answers all count.
func failedFrac(attempted, failed int) float64 {
	if attempted <= 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// unattributed returns the part of a traced wall time that no layer's self
// time covers, and that part's share of the wall. Layer self times are
// disjoint by construction (the benchmark times sequential calls), so the
// residual is what the benchmark's own loop and any untimed call cost.
func unattributed(wall time.Duration, self ...time.Duration) (time.Duration, float64) {
	rest := wall
	for _, d := range self {
		rest -= d
	}
	if wall <= 0 {
		return rest, 0
	}
	return rest, float64(rest) / float64(wall)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// perSearch divides a total by the number of searches it covers.
func perSearch(total float64, searches int) float64 {
	if searches <= 0 {
		return 0
	}
	return total / float64(searches)
}
