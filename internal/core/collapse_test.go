package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"vsfs/internal/andersen"
	"vsfs/internal/graph"
	"vsfs/internal/ir"
	"vsfs/internal/irparse"
	"vsfs/internal/meld"
	"vsfs/internal/memssa"
	"vsfs/internal/obs"
	"vsfs/internal/sfs"
	"vsfs/internal/svfg"
	"vsfs/internal/workload"
)

// solveUncollapsed is the main phase without the collapse: every
// version is its own representative, so the solve keeps one set per
// version, as the paper does.
func solveUncollapsed(t testing.TB, g *svfg.Graph, ver *versioning) *Result {
	t.Helper()
	s := newState(context.Background(), g, ver)
	rep := make([]meld.Version, len(s.ptv))
	for v := range rep {
		rep[v] = meld.Version(v)
	}
	s.adopt(s.staticReliances(), rep)
	if err := s.run(); err != nil {
		t.Fatal(err)
	}
	s.finish(time.Now())
	return s.Result
}

// sameSolution fails t unless got and want agree on every slot's
// consumed and yielded set, every top-level set, every call's callees
// and the storage and constraint counts.
func sameSolution(t *testing.T, g *svfg.Graph, got, want *Result) {
	t.Helper()
	for sl := range g.NumSlots() {
		l, o := g.SlotNode(sl), g.SlotObj(sl)
		if a, b := got.ConsumedSet(l, o), want.ConsumedSet(l, o); !a.Equal(b) {
			t.Fatalf("ξ set at slot %d (ℓ%d, #%d): collapsed %v, uncollapsed %v", sl, l, o, a, b)
		}
		if a, b := got.YieldedSet(l, o), want.YieldedSet(l, o); !a.Equal(b) {
			t.Fatalf("η set at slot %d (ℓ%d, #%d): collapsed %v, uncollapsed %v", sl, l, o, a, b)
		}
	}
	prog := g.Prog
	for v := ir.ID(1); int(v) < prog.NumValues(); v++ {
		if a, b := got.PointsTo(v), want.PointsTo(v); !a.Equal(b) {
			t.Fatalf("pts(%s): collapsed %v, uncollapsed %v", prog.NameOf(v), a, b)
		}
	}
	for _, f := range prog.Funcs {
		f.ForEachInstr(func(in *ir.Instr) {
			if in.Op == ir.Call && fmt.Sprint(got.CalleesOf(in)) != fmt.Sprint(want.CalleesOf(in)) {
				t.Fatalf("callees of ℓ%d: collapsed %v, uncollapsed %v", in.Label, got.CalleesOf(in), want.CalleesOf(in))
			}
		})
	}
	a, b := got.Stats, want.Stats
	if a.PtsSets != b.PtsSets || a.PtsWords != b.PtsWords || a.StoredSets != b.StoredSets ||
		a.StoredWords != b.StoredWords || a.VersionConstraints != b.VersionConstraints {
		t.Fatalf("collapsed stats %+v, uncollapsed %+v", a, b)
	}
}

// TestCollapseMatchesUncollapsed: collapsing version-reliance cycles is
// exact. On every profile and on random programs, the collapsed solve
// gives every slot, pointer and call the same answer as a solve that
// keeps one set per version.
func TestCollapseMatchesUncollapsed(t *testing.T) {
	check := func(t *testing.T, g *svfg.Graph) {
		ver, err := runVersioning(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		got, err := solveMain(context.Background(), g.Clone(), ver)
		if err != nil {
			t.Fatal(err)
		}
		want := solveUncollapsed(t, g.Clone(), ver)
		sameSolution(t, g, got, want)
	}
	for _, p := range workload.Profiles() {
		t.Run(p.Name, func(t *testing.T) {
			if (testing.Short() || raceEnabled) && largestProfiles[p.Name] {
				t.Skip("largest profiles skipped under -short and -race")
			}
			check(t, profileGraph(t, p.Name))
		})
	}
	for seed := int64(0); seed < 30; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			prog := workload.Random(seed, workload.DefaultRandomConfig())
			aux := andersen.Analyze(prog)
			check(t, svfg.Build(prog, aux, memssa.Build(prog, aux)))
		})
	}
}

// onTheFlyCycle is recursion through a function pointer. f is address
// taken, so its FUNENTRY and the indirect call's CallRet are δ nodes.
// The direct recursive call closes two static version cycles; the
// indirect call's edges, wired during the solve, join them into one.
const onTheFlyCycle = `
func f(p, x) {
entry:
  fp = funcaddr f
  br a, b
a:
  store p, x
  jmp j
b:
  jmp j
j:
  call f(p, x)
  calli fp(p, x)
  v = load p
  ret
}
func main() {
entry:
  p = alloc.heap h 0
  x = alloc b 0
  fp = funcaddr f
  calli fp(p, x)
  w = load p
  ret
}
`

// TestCycleClosedOnTheFly: constraints that wireCallee adds between
// collapsed versions land on their representatives, and a cycle they
// close among representatives still solves to SFS's answer, with every
// propagation charged once to the attribution collector.
func TestCycleClosedOnTheFly(t *testing.T) {
	prog, err := irparse.Parse(onTheFlyCycle)
	if err != nil {
		t.Fatal(err)
	}
	aux := andersen.Analyze(prog)
	g := svfg.Build(prog, aux, memssa.Build(prog, aux))
	ver, err := runVersioning(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}

	s := newState(context.Background(), g.Clone(), ver)
	if err := s.condense(s.staticReliances()); err != nil {
		t.Fatal(err)
	}
	if s.versionSCCs == 0 {
		t.Fatal("no static version cycle to collapse")
	}
	if err := s.run(); err != nil {
		t.Fatal(err)
	}
	// The edges wired during the solve are the ones the graph gained.
	onCollapsed := false
	for sl := range g.NumSlots() {
		y := ver.yield[sl]
		for _, to := range s.Graph.AppendGained(nil, sl) {
			c := ver.consume[to]
			onCollapsed = onCollapsed || s.rep[y] != y || s.rep[c] != c
		}
	}
	if !onCollapsed {
		t.Fatal("no on-the-fly constraint touches a collapsed version")
	}
	// The representatives' reliances, static and on the fly, form a
	// cycle: one the static collapse could not see.
	reps := graph.BuildCSR(len(s.rep), len(s.rep), func(emit func(from, to uint32)) {
		for r := range uint32(len(s.rep)) {
			for _, to := range s.verReliance.Row(r) {
				emit(r, to)
			}
			for e := s.extra.head[r]; e != 0; e = s.extra.next[e-1] {
				emit(r, s.extra.to[e-1])
			}
		}
	})
	if f, err := collapse(context.Background(), &reps); err != nil || f.sccs == 0 {
		t.Fatalf("no cycle closed on the fly among representatives (err %v)", err)
	}

	attr := obs.NewObjectAttr(prog.NumValues())
	r, err := SolveContext(obs.WithCollector(context.Background(), attr), g.Clone())
	if err != nil {
		t.Fatal(err)
	}
	equalResults(t, prog, g, sfs.Solve(g.Clone()), r)
	wantPts(t, prog, r, "w", "b")
	if attr.TotalProps() != uint64(r.Stats.Propagations) {
		t.Errorf("attr-conserved-props: charged %d, solver propagated %d", attr.TotalProps(), r.Stats.Propagations)
	}
	if attr.TotalPops() != uint64(r.Stats.NodesProcessed) {
		t.Errorf("attr-conserved-pops: charged %d, solver processed %d", attr.TotalPops(), r.Stats.NodesProcessed)
	}
	if attr.TotalSets() != uint64(r.Stats.PtsSets) {
		t.Errorf("attr-conserved-sets: charged %d, solver stored %d", attr.TotalSets(), r.Stats.PtsSets)
	}
}
