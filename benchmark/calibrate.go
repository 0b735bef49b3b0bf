package main

import (
	"math/rand"
	"sort"
	"time"
)

// The machines this benchmark runs on share their hosts: a plain CPU
// loop runs ±15% slower or faster from one minute to the next, and a
// whole set of runs can come out a third slower than the set before it.
// So every run also times a fixed calibration kernel, and times are
// reported in reference seconds: wall seconds scaled by how much slower
// or faster than kernelRef the kernel ran during that run. A change to
// vsfs cannot move the kernel, so only the machine's speed is divided
// out; the raw seconds stay in the per-program rows.

// kernelRef is the kernel's reference time: a machine on which the
// kernel takes 100 ms reports raw seconds unchanged.
const kernelRef = 0.1

// calibSink keeps the kernel's result alive so it cannot be optimised away.
var calibSink int

// kernel does a fixed amount of the work a points-to solver does —
// allocating small objects, growing map entries, sorting and chasing
// pointers — and returns how long it took.
func kernel() float64 {
	start := time.Now()
	r := rand.New(rand.NewSource(1))
	sets := map[uint32][]uint32{}
	for i := 0; i < 300000; i++ {
		k := uint32(r.Intn(50000))
		sets[k] = append(sets[k], uint32(i))
	}
	type node struct {
		next *node
		v    [4]uint64
	}
	var head *node
	for i := 0; i < 200000; i++ {
		head = &node{next: head, v: [4]uint64{uint64(i)}}
	}
	xs := make([]uint32, 400000)
	for i := range xs {
		xs[i] = r.Uint32()
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	sum := len(sets) + int(xs[0])
	for n := head; n != nil; n = n.next {
		sum += int(n.v[0])
	}
	calibSink = sum
	return time.Since(start).Seconds()
}

// speed collects one run's kernel times.
type speed struct {
	samples []float64
	total   float64 // seconds spent in the kernel
}

// measure runs the kernel once.
func (s *speed) measure() {
	k := kernel()
	s.samples = append(s.samples, k)
	s.total += k
}

// factor converts this run's wall seconds to reference seconds.
func (s *speed) factor() float64 {
	m := median(s.samples)
	if m == 0 {
		return 1
	}
	return kernelRef / m
}

// report records the kernel's median time and the factor applied.
func (s *speed) report(r *result) {
	r.extra("speed.kernel_ms", median(s.samples)*1e3, "ms")
	r.extra("speed.factor", s.factor(), "x")
	r.Samples["speed.kernel_ms"] = len(s.samples)
}
