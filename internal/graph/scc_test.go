package graph

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// csrOf builds an n-vertex CSR from an edge list.
func csrOf(n int, edges [][2]uint32) CSR {
	return BuildCSR(n, n, func(emit func(from, to uint32)) {
		for _, e := range edges {
			emit(e[0], e[1])
		}
	})
}

func mustSCC(t *testing.T, g CSR) Components {
	t.Helper()
	c, err := SCC(&g, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSCCsSimpleCycle(t *testing.T) {
	// 0 -> 1 -> 2 -> 0, 2 -> 3
	c := mustSCC(t, csrOf(4, [][2]uint32{{0, 1}, {1, 2}, {2, 0}, {2, 3}}))
	rep := c.Rep
	if rep[0] != rep[1] || rep[1] != rep[2] {
		t.Errorf("cycle vertices in different components: %v", rep)
	}
	if rep[3] != 3 || rep[0] == 3 {
		t.Errorf("vertex 3 merged into the cycle: %v", rep)
	}
	if rep[rep[0]] != rep[0] {
		t.Errorf("a component's root is not its own root: %v", rep)
	}
	if c.Cycles != 1 || c.Members != 3 {
		t.Errorf("Cycles, Members = %d, %d; want 1, 3", c.Cycles, c.Members)
	}
}

func TestSCCsSelfLoopAndIsolated(t *testing.T) {
	c := mustSCC(t, csrOf(3, [][2]uint32{{0, 0}}))
	for v, r := range c.Rep {
		if r != uint32(v) {
			t.Errorf("vertex %d shares a component: %v", v, c.Rep)
		}
	}
	if c.Cycles != 0 || c.Members != 0 {
		t.Errorf("Cycles, Members = %d, %d; want 0, 0", c.Cycles, c.Members)
	}
}

// TestDeepGraphNoStackOverflow: a 200k-vertex path would overflow a
// recursive Tarjan; closing it into one cycle keeps the whole path on
// the Tarjan stack.
func TestDeepGraphNoStackOverflow(t *testing.T) {
	const n = 200000
	var edges [][2]uint32
	for i := range uint32(n - 1) {
		edges = append(edges, [2]uint32{i, i + 1})
	}
	if c := mustSCC(t, csrOf(n, edges)); c.Cycles != 0 {
		t.Errorf("path: %d cycles, want 0", c.Cycles)
	}
	edges = append(edges, [2]uint32{n - 1, 0})
	if c := mustSCC(t, csrOf(n, edges)); c.Cycles != 1 || c.Members != n {
		t.Errorf("cycle: Cycles, Members = %d, %d; want 1, %d", c.Cycles, c.Members, n)
	}
}

// TestSCCPoll: the poll hook runs before the first visit and every
// PollInterval visits after it, and its error ends the search. A
// vertex with no edges is never visited.
func TestSCCPoll(t *testing.T) {
	const n = 3*PollInterval + 1
	var edges [][2]uint32
	for i := range uint32(n - 2) {
		edges = append(edges, [2]uint32{i, i + 1})
	}
	g := csrOf(n, edges) // 3*PollInterval visits: vertex n-1 is isolated
	polls := 0
	if _, err := SCC(&g, func() error { polls++; return nil }); err != nil || polls != 3 {
		t.Fatalf("%d polls (err %v), want 3", polls, err)
	}
	stop := errors.New("stop")
	polls = 0
	_, err := SCC(&g, func() error {
		if polls++; polls == 2 {
			return stop
		}
		return nil
	})
	if err != stop || polls != 2 {
		t.Fatalf("err %v after %d polls, want stop after 2", err, polls)
	}
}

// reaches returns the vertices reachable from v in g, v included.
func reaches(g *CSR, v uint32) []bool {
	seen := make([]bool, g.NumRows())
	seen[v] = true
	work := []uint32{v}
	for len(work) > 0 {
		u := work[len(work)-1]
		work = work[:len(work)-1]
		for _, w := range g.Row(u) {
			if !seen[w] {
				seen[w] = true
				work = append(work, w)
			}
		}
	}
	return seen
}

// Property: two vertices share a component exactly when each reaches
// the other, on small random graphs.
func TestQuickSCCMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(9)
		var edges [][2]uint32
		for range r.Intn(3 * n) {
			edges = append(edges, [2]uint32{uint32(r.Intn(n)), uint32(r.Intn(n))})
		}
		g := csrOf(n, edges)
		c, err := SCC(&g, nil)
		if err != nil {
			return false
		}
		reach := make([][]bool, n)
		for i := range n {
			reach[i] = reaches(&g, uint32(i))
		}
		for i := range n {
			for j := range n {
				if (c.Rep[i] == c.Rep[j]) != (reach[i][j] && reach[j][i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestWorklist: FIFO order, each id queued at most once, marks grown
// past the initial size, and the high-water mark.
func TestWorklist(t *testing.T) {
	w := NewWorklist(2)
	for _, v := range []uint32{1, 0, 1, 5, 0} {
		w.Push(v)
	}
	var got []uint32
	for v, ok := w.Pop(); ok; v, ok = w.Pop() {
		got = append(got, v)
		if v == 1 && len(got) == 1 {
			w.Push(1) // popped, so queued again
		}
	}
	want := []uint32{1, 0, 5, 1}
	if len(got) != len(want) {
		t.Fatalf("popped %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("popped %v, want %v", got, want)
		}
	}
	if w.HighWater() != 3 {
		t.Errorf("high water %d, want 3", w.HighWater())
	}
}
