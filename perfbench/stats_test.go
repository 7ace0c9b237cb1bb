package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // descending: the helper must sort a copy
	}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.01, 1}, {0.5, 50}, {0.99, 99}, {1, 100}} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 100 {
		t.Errorf("percentile reordered its input")
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("one sample: got %v, want 7", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("no samples: got %v, want 0", got)
	}
	// Nearest rank never interpolates: p50 of an even count is the lower
	// middle sample, p99 of 10 samples the largest.
	ten := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	if got := median(ten); got != 50 {
		t.Errorf("median of 10 = %v, want 50", got)
	}
	if got := percentile(ten, 0.99); got != 100 {
		t.Errorf("p99 of 10 = %v, want 100", got)
	}
}

func TestCallMedians(t *testing.T) {
	nan := math.NaN()
	eps := [][]float64{
		{1, 10, 100},
		{2, 90, nan}, // a stall on call 1, a failed call 2
		{3, 30, 300},
	}
	got := callMedians(eps)
	want := []float64{2, 30, 100} // call 2: the lower of its two samples
	if len(got) != len(want) {
		t.Fatalf("callMedians = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("callMedians = %v, want %v", got, want)
			break
		}
	}
	if got := callMedians([][]float64{{nan}}); len(got) != 0 {
		t.Errorf("a call no episode completed: got %v, want none", got)
	}
	if got := callMedians(nil); got != nil {
		t.Errorf("no episodes: got %v, want nil", got)
	}
}

func TestFailedFrac(t *testing.T) {
	if got := failedFrac(200, 3); got != 0.015 {
		t.Errorf("failedFrac(200, 3) = %v, want 0.015", got)
	}
	if got := failedFrac(0, 0); got != 0 {
		t.Errorf("failedFrac(0, 0) = %v, want 0", got)
	}
}

func TestUnattributedReconciles(t *testing.T) {
	wall := 100 * time.Millisecond
	rest, frac := unattributed(wall, 30*time.Millisecond, 50*time.Millisecond, 15*time.Millisecond)
	if rest != 5*time.Millisecond || frac != 0.05 {
		t.Errorf("unattributed = %v (%v of wall), want 5ms (0.05)", rest, frac)
	}
	// Layers timed with more than the wall (clock granularity) leave a
	// negative residual rather than hiding it.
	rest, _ = unattributed(wall, 60*time.Millisecond, 50*time.Millisecond)
	if rest != -10*time.Millisecond {
		t.Errorf("over-attributed residual = %v, want -10ms", rest)
	}
}

func TestMismatches(t *testing.T) {
	if n := mismatches([]string{"a", "b", "c"}, []string{"a", "x", "c"}); n != 1 {
		t.Errorf("one differing digest: got %d", n)
	}
	if n := mismatches([]string{"a"}, []string{"a", "b"}); n != 1 {
		t.Errorf("a missing digest counts: got %d", n)
	}
	if n := mismatches([]string{"a", "b"}, []string{"a"}); n != 1 {
		t.Errorf("an extra digest counts: got %d", n)
	}
}

func TestKnee(t *testing.T) {
	rung := func(sent, onTime int) rungStats { return rungStats{sent: sent, onTime: onTime} }
	all := func(rs ...rungStats) []rungStats { return rs }
	for _, tc := range []struct {
		name  string
		rungs []rungStats
		want  float64
	}{
		{"sustained to the top", all(rung(100, 100), rung(100, 100), rung(100, 99), rung(100, 100)), 100},
		// 100% at 50/s, 90% at 75/s: 99% is crossed a tenth of the way up.
		{"interpolated", all(rung(100, 100), rung(100, 100), rung(100, 90), rung(100, 50)), 52.5},
		{"fails at the bottom", all(rung(100, 50), rung(100, 40), rung(100, 30), rung(100, 20)), 12.5},
		{"a backlog alone fails a rung", all(rung(100, 100), rungStats{sent: 100, onTime: 100, drain: time.Second}, rung(100, 100), rung(100, 100)), 25},
	} {
		if got := knee(tc.rungs); got < tc.want-1e-9 || got > tc.want+1e-9 {
			t.Errorf("%s: knee = %v, want %v", tc.name, got, tc.want)
		}
	}
}
