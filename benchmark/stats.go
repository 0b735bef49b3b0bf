package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartile of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), so
// spreads computed here match the ones an outside checker computes. With
// fewer than two samples every quartile is the sample itself.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	n := len(s)
	m := n + 1
	q := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile range as a share of the median: the
// run-to-run noise measure the benchmark's bounds are checked against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// tailPct is the percentile tail_s reports on every workload. A fixed
// percentile keeps the metric's meaning the same from run to run; the
// serve workload's 200-plus requests leave at least ten samples beyond
// it, the CLI workloads' few dozen do not, and each run prints the
// highest percentile its sample count supports (tailPercentile).
const tailPct = 95

// tailLadder is the set of percentiles a tail latency may be reported
// at, highest first, in tenths of a percent.
var tailLadder = []int{999, 990, 950, 900, 750, 500}

// tailPercentile returns the highest percentile in tailLadder that
// leaves at least ten of n samples beyond it, the highest a tail can be
// read at without resting on one or two outliers. With fewer than 20
// samples none qualifies and it returns 100: only the maximum is known.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n*(1000-p) >= 10*1000 {
			return float64(p) / 10
		}
	}
	return 100
}

// geomean is the geometric mean of the positive entries of xs, or 0 when
// there are none.
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
