package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); !near(got, c.want) {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives, which is how an outside checker
// computes a benchmark's spread.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{2, 9.5, 3.25, 7, 1.5}, [3]float64{1.75, 3.25, 8.25}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %g, %g, %g, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4}); !near(got, 1) {
		t.Errorf("spread = %g, want (3.75-1.25)/2.5 = 1", got)
	}
}

// TestTailPercentileLeavesTenBeyond checks the rule that a reported
// percentile has at least ten samples beyond it.
func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 100}, {19, 100}, {20, 50}, {39, 50}, {40, 75}, {100, 90},
		{199, 90}, {200, 95}, {290, 95}, {999, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 95); got != 190 {
		t.Errorf("p95 of 1..200 = %g, want 190 (ten samples beyond)", got)
	}
	if got := percentile([]float64{3, 9, 1}, 100); got != 9 {
		t.Errorf("p100 = %g, want the maximum", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); !near(got, 4) {
		t.Errorf("geomean(1,4,16) = %g, want 4", got)
	}
	if got := geomean([]float64{0, 2, 8}); !near(got, 4) {
		t.Errorf("geomean skips non-positive entries: got %g, want 4", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean(nil) = %g, want 0", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "request_s", Better: "lower", Bound: 0.1}
	base := []float64{10, 10.1, 9.9, 10.2, 9.8, 10, 10.1, 9.9, 10, 10}
	scaled := func(k float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * k
		}
		return out
	}
	pairs := func(old, new []float64) [][2]float64 {
		var ps [][2]float64
		for i := range old {
			ps = append(ps, [2]float64{old[i], new[i]})
		}
		return ps
	}
	for _, c := range []struct {
		name string
		new  []float64
		want string
	}{
		{"faster", scaled(0.8), "improved"},
		{"same", base, "no worse"},
		{"slightly slower", scaled(1.05), "no worse"},
		{"much slower", scaled(1.3), "worse"},
		{"noisy", []float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 10}, "unresolved"},
	} {
		if got := verdict(lower, base, c.new, pairs(base, c.new)); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
	higher := metricSpec{Name: "rps", Better: "higher", Bound: 0.1}
	if got := verdict(higher, base, scaled(1.3), pairs(base, scaled(1.3))); got != "improved" {
		t.Errorf("higher-is-better gain: verdict = %q, want improved", got)
	}
}

func TestSpeedFactor(t *testing.T) {
	var s speed
	if got := s.factor(); got != 1 {
		t.Errorf("factor with no kernel runs = %g, want 1", got)
	}
	s.samples = []float64{0.25, 0.2, 0.1}
	if got := s.factor(); !near(got, kernelRef/0.2) {
		t.Errorf("factor = %g, want reference over the median kernel time", got)
	}
}
