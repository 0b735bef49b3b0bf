package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// TestCSRKeepsEmissionOrder: a CSR filled by Count, Alloc, Put and Done
// holds each row's edges in the order they were put, and a row is
// clipped, so appending to it leaves the next row alone.
func TestCSRKeepsEmissionOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 50
	want := make([][]uint32, n)
	var edges [][2]uint32
	for range 400 {
		v, to := uint32(rng.Intn(n)), uint32(rng.Intn(1000))
		want[v] = append(want[v], to)
		edges = append(edges, [2]uint32{v, to})
	}
	c := NewCSR(n)
	for _, e := range edges {
		c.Count(e[0])
	}
	c.Alloc()
	for _, e := range edges {
		c.Put(e[0], e[1])
	}
	c.Done()
	if c.NumRows() != n || len(c.Adj) != len(edges) {
		t.Fatalf("%d rows, %d edges; want %d, %d", c.NumRows(), len(c.Adj), n, len(edges))
	}
	for v := range uint32(n) {
		if !slices.Equal(c.Row(v), want[v]) {
			t.Fatalf("row %d = %v, want %v", v, c.Row(v), want[v])
		}
	}
	next := slices.Clone(c.Row(1))
	_ = append(c.Row(0), 7)
	if !slices.Equal(c.Row(1), next) {
		t.Fatal("appending to row 0 wrote into row 1")
	}
}

// TestBuildCSRDedups: BuildCSR keeps each row's first occurrence of
// every target, in emission order.
func TestBuildCSRDedups(t *testing.T) {
	edges := [][2]uint32{{0, 3}, {2, 1}, {0, 1}, {0, 3}, {2, 1}, {1, 0}, {0, 2}}
	c := BuildCSR(3, 4, func(emit func(row, to uint32)) {
		for _, e := range edges {
			emit(e[0], e[1])
		}
	})
	for v, want := range [][]uint32{{3, 1, 2}, {0}, {1}} {
		if got := c.Row(uint32(v)); !slices.Equal(got, want) {
			t.Fatalf("row %d = %v, want %v", v, got, want)
		}
	}
}

// TestPairSet: Add reports new pairs once, across growth, and a clone
// is independent of its original.
func TestPairSet(t *testing.T) {
	var p PairSet
	for i := range uint32(1000) {
		if !p.Add(i, i+1) {
			t.Fatalf("pair %d new, reported present", i)
		}
	}
	for i := range uint32(1000) {
		if p.Add(i, i+1) {
			t.Fatalf("pair %d present, reported new", i)
		}
	}
	c := p.Clone()
	if !c.Add(5000, 1) {
		t.Fatal("the clone reported a new pair present")
	}
	if !p.Add(5000, 1) {
		t.Fatal("a pair added to the clone reached the original")
	}
	if c.Add(999, 1000) || c.Add(5000, 1) {
		t.Fatal("the clone lost a pair")
	}
}
