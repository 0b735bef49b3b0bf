package meld

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// digraph is a test adjacency list: row v lists v's successors, each
// once.
type digraph [][]uint32

func (g digraph) addEdge(from, to uint32) {
	if !slices.Contains(g[from], to) {
		g[from] = append(g[from], to)
	}
}

func (g digraph) succs(v uint32) []uint32 { return g[v] }

// TestOperatorLaws checks the four laws of Section IV-B on random labels
// built from random atom melds.
func TestOperatorLaws(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tab := NewTable()
		// Build a pool of labels by melding random atoms.
		pool := []Version{Epsilon}
		for i := 0; i < 8; i++ {
			pool = append(pool, tab.NewAtom())
		}
		for i := 0; i < 20; i++ {
			a := pool[r.Intn(len(pool))]
			b := pool[r.Intn(len(pool))]
			pool = append(pool, tab.Meld(a, b))
		}
		a := pool[r.Intn(len(pool))]
		b := pool[r.Intn(len(pool))]
		c := pool[r.Intn(len(pool))]
		if tab.Meld(a, b) != tab.Meld(b, a) {
			return false // commutativity
		}
		if tab.Meld(a, tab.Meld(b, c)) != tab.Meld(tab.Meld(a, b), c) {
			return false // associativity
		}
		if tab.Meld(a, a) != a {
			return false // idempotence
		}
		if tab.Meld(a, Epsilon) != a {
			return false // identity
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAtomsAreDistinct(t *testing.T) {
	tab := NewTable()
	a := tab.NewAtom()
	b := tab.NewAtom()
	if a == b {
		t.Fatal("two atoms interned to the same version")
	}
	if a == Epsilon || b == Epsilon {
		t.Fatal("atom equals ε")
	}
	m := tab.Meld(a, b)
	if m == a || m == b || m == Epsilon {
		t.Error("meld of distinct atoms collapsed")
	}
	if tab.Atoms() != 2 {
		t.Errorf("Atoms = %d", tab.Atoms())
	}
	if tab.Distinct() != 4 { // ε, {a}, {b}, {a,b}
		t.Errorf("Distinct = %d, want 4", tab.Distinct())
	}
}

// TestMeldOfInternedUnionAllocatesNothing: once a union is interned,
// melding its parts again is a merge into reused scratch and a table
// probe, with no allocation; so are the subset fast paths.
func TestMeldOfInternedUnionAllocatesNothing(t *testing.T) {
	tab := NewTable()
	a, b, c := tab.NewAtom(), tab.NewAtom(), tab.NewAtom()
	ab := tab.Meld(a, b)
	abc := tab.Meld(ab, c)
	if n := testing.AllocsPerRun(100, func() {
		if tab.Meld(ab, c) != abc || tab.Meld(c, ab) != abc || tab.Meld(a, b) != ab {
			t.Fatal("re-meld gave a different label")
		}
		if tab.Meld(abc, a) != abc || tab.Meld(b, abc) != abc {
			t.Fatal("subset meld gave a different label")
		}
	}); n != 0 {
		t.Fatalf("melding interned labels allocates %v times per run, want 0", n)
	}
}

// TestResetStartsFreshDomain: after Reset, ids continue from Distinct,
// contents seen before the reset get new ids, and Reset itself interns
// nothing.
func TestResetStartsFreshDomain(t *testing.T) {
	tab := NewTable()
	a, b := tab.NewAtom(), tab.NewAtom()
	old := tab.Meld(a, b)
	d := tab.Distinct()
	tab.Reset()
	if tab.Distinct() != d {
		t.Fatalf("Distinct = %d after Reset, want %d", tab.Distinct(), d)
	}
	x, y := tab.NewAtom(), tab.NewAtom()
	if x != Version(d) || y != Version(d+1) {
		t.Fatalf("atoms after Reset = %d, %d, want %d, %d", x, y, d, d+1)
	}
	xy := tab.Meld(x, y)
	if xy == old || xy != Version(d+2) || tab.Meld(y, x) != xy {
		t.Fatalf("union after Reset = %d, want the fresh id %d", xy, d+2)
	}
	if got := tab.AtomSet(xy).Slice(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("AtomSet(%d) = %v, want [2 3]", xy, got)
	}
	if tab.Atoms() != 4 || tab.Distinct() != d+3 {
		t.Fatalf("Atoms, Distinct = %d, %d, want 4, %d", tab.Atoms(), tab.Distinct(), d+3)
	}
}

// TestFigure4 reconstructs the paper's Figure 4: a 9-node graph with two
// prelabelled nodes. Node numbering (1-based in the figure, 0-based
// here):
//
//	1→3, 2→3, 2→4, 3→5, 4→6, 5→7, 6→7, 3→8(via 5? no)…
//
// The figure's exact topology is not fully recoverable from text, so we
// build the property it illustrates: two nodes with *different incoming
// neighbours* finish with the same label when the same set of prelabels
// reaches them.
func TestFigure4Property(t *testing.T) {
	// Graph: p1 → a → c, p2 → b → c, c → d
	//        p1 → e, p2 → e            (e: both prelabels, direct)
	// c and e have different incoming neighbours but identical reaching
	// prelabel sets {p1, p2}.
	const (
		p1 = iota
		p2
		a
		b
		c
		d
		e
		n
	)
	g := make(digraph, n)
	g.addEdge(p1, a)
	g.addEdge(a, c)
	g.addEdge(p2, b)
	g.addEdge(b, c)
	g.addEdge(c, d)
	g.addEdge(p1, e)
	g.addEdge(p2, e)

	label, tab := Run(n, g.succs, []uint32{p1, p2})

	if label[a] != label[p1] {
		t.Errorf("label(a) = %d, want p1's label %d", label[a], label[p1])
	}
	if label[b] != label[p2] {
		t.Errorf("label(b) = %d, want p2's label", label[b])
	}
	if label[c] != label[e] {
		t.Errorf("label(c) = %d ≠ label(e) = %d despite same reaching prelabels", label[c], label[e])
	}
	if label[d] != label[c] {
		t.Errorf("label(d) = %d, want c's label (single incoming)", label[d])
	}
	if label[c] == label[p1] || label[c] == label[p2] {
		t.Error("melded label collapsed into a prelabel")
	}
	want := tab.Meld(label[p1], label[p2])
	if label[c] != want {
		t.Errorf("label(c) = %d, want meld %d", label[c], want)
	}
}

func TestPrelabelledNodesNeverChange(t *testing.T) {
	// p2 is reachable from p1, but prelabels are frozen.
	g := make(digraph, 3)
	g.addEdge(0, 1)
	g.addEdge(1, 2)
	label, tab := Run(3, g.succs, []uint32{0, 1})
	if tab.AtomSet(label[1]).Len() != 1 {
		t.Errorf("prelabelled node 1 changed: %v", tab.AtomSet(label[1]))
	}
	// Node 2 melds only node 1's label (its sole incoming neighbour).
	if label[2] != label[1] {
		t.Errorf("label(2) = %d, want %d", label[2], label[1])
	}
}

func TestUnreachableStaysEpsilon(t *testing.T) {
	g := make(digraph, 4)
	g.addEdge(0, 1)
	// 2 → 3 unreachable from prelabel 0.
	g.addEdge(2, 3)
	label, _ := Run(4, g.succs, []uint32{0})
	if label[2] != Epsilon || label[3] != Epsilon {
		t.Errorf("unreachable nodes not ε: %v", label)
	}
}

func TestCycleConverges(t *testing.T) {
	// p → a → b → a (cycle); both a and b end with p's label.
	g := make(digraph, 3)
	g.addEdge(0, 1)
	g.addEdge(1, 2)
	g.addEdge(2, 1)
	label, _ := Run(3, g.succs, []uint32{0})
	if label[1] != label[0] || label[2] != label[0] {
		t.Errorf("cycle labels = %v", label)
	}
}

// Property: the final label of every non-prelabelled node equals the
// meld of the atoms of exactly the prelabelled nodes that reach it.
func TestQuickLabelEqualsReachingPrelabels(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(15)
		g := make(digraph, n)
		for e := 0; e < 3*n; e++ {
			g.addEdge(uint32(r.Intn(n)), uint32(r.Intn(n)))
		}
		var pre []uint32
		for v := 0; v < n; v++ {
			if r.Intn(3) == 0 {
				pre = append(pre, uint32(v))
			}
		}
		label, tab := Run(n, g.succs, pre)

		for v := 0; v < n; v++ {
			frozen := false
			for _, p := range pre {
				if p == uint32(v) {
					frozen = true
				}
			}
			if frozen {
				if tab.AtomSet(label[v]).Len() != 1 {
					return false
				}
				continue
			}
			want := Epsilon
			for _, p := range pre {
				// p reaches v via a path not passing through... no:
				// plain reachability, but labels propagate through
				// frozen nodes too (their labels flow out, they just
				// do not change). A prelabel q on the path masks
				// nothing — p's label still flows only if each hop is
				// unfrozen. Frozen intermediate nodes block p.
				if reachesAvoidingFrozen(g, p, uint32(v), pre) {
					want = tab.Meld(want, label[p])
				}
			}
			if label[v] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// reachesAvoidingFrozen reports whether from's label flows to to:
// a path from→…→to whose intermediate nodes are all unfrozen (frozen
// nodes absorb incoming labels without changing).
func reachesAvoidingFrozen(g digraph, from, to uint32, pre []uint32) bool {
	frozen := map[uint32]bool{}
	for _, p := range pre {
		frozen[p] = true
	}
	seen := map[uint32]bool{from: true}
	work := []uint32{from}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range g.succs(v) {
			if s == to {
				return true
			}
			if seen[s] || frozen[s] {
				continue
			}
			seen[s] = true
			work = append(work, s)
		}
	}
	return false
}
