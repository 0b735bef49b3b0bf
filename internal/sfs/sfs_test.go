package sfs

import (
	"fmt"
	"testing"

	"vsfs/internal/andersen"
	"vsfs/internal/ir"
	"vsfs/internal/irparse"
	"vsfs/internal/memssa"
	"vsfs/internal/svfg"
	"vsfs/internal/workload"
)

// pipeline runs parse → aux → memssa → svfg → sfs.
func pipeline(t *testing.T, src string) (*ir.Program, *svfg.Graph, *Result) {
	t.Helper()
	prog, err := irparse.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	g := buildGraph(prog)
	return prog, g, Solve(g)
}

func buildGraph(prog *ir.Program) *svfg.Graph {
	aux := andersen.Analyze(prog)
	mssa := memssa.Build(prog, aux)
	return svfg.Build(prog, aux, mssa)
}

func varByName(t *testing.T, prog *ir.Program, name string) ir.ID {
	t.Helper()
	for id := ir.ID(1); int(id) < prog.NumValues(); id++ {
		if prog.IsPointer(id) && prog.Value(id).Name == name {
			return id
		}
	}
	t.Fatalf("no pointer %q", name)
	return ir.None
}

func names(prog *ir.Program, r *Result, v ir.ID) map[string]bool {
	out := map[string]bool{}
	r.PointsTo(v).ForEach(func(o uint32) { out[prog.ObjValue(ir.Obj(o)).Name] = true })
	return out
}

func wantPts(t *testing.T, prog *ir.Program, r *Result, v string, want ...string) {
	t.Helper()
	got := names(prog, r, varByName(t, prog, v))
	if len(got) != len(want) {
		t.Errorf("pts(%s) = %v, want %v", v, got, want)
		return
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("pts(%s) = %v, want %v", v, got, want)
			return
		}
	}
}

func TestStrongUpdateKillsOldValue(t *testing.T) {
	// p points to singleton a; the second store strongly updates a, so
	// the load sees only c, not b. Andersen would report {b, c}.
	prog, _, r := pipeline(t, `
func main() {
entry:
  p = alloc a 0
  x = alloc b 0
  y = alloc c 0
  store p, x
  store p, y
  v = load p
  ret
}
`)
	wantPts(t, prog, r, "v", "c")
}

func TestWeakUpdateOnHeap(t *testing.T) {
	// Heap objects are summaries: both stores accumulate.
	prog, _, r := pipeline(t, `
func main() {
entry:
  p = alloc.heap h 0
  x = alloc b 0
  y = alloc c 0
  store p, x
  store p, y
  v = load p
  ret
}
`)
	wantPts(t, prog, r, "v", "b", "c")
}

func TestWeakUpdateOnMultiplePointees(t *testing.T) {
	// q may point to a or b, so stores through q cannot strongly update.
	prog, _, r := pipeline(t, `
func main() {
entry:
  pa = alloc a 0
  pb = alloc b 0
  q = phi(pa, pb)
  x = alloc t1 0
  y = alloc t2 0
  store q, x
  store q, y
  v = load q
  ret
}
`)
	wantPts(t, prog, r, "v", "t1", "t2")
}

func TestLoadBeforeStoreSeesNothing(t *testing.T) {
	prog, _, r := pipeline(t, `
func main() {
entry:
  p = alloc a 0
  v = load p
  x = alloc b 0
  store p, x
  ret
}
`)
	wantPts(t, prog, r, "v")
}

func TestBranchMerge(t *testing.T) {
	prog, _, r := pipeline(t, `
func main() {
entry:
  p = alloc a 0
  x = alloc b 0
  y = alloc c 0
  br l, rgt
l:
  store p, x
  jmp j
rgt:
  store p, y
  jmp j
j:
  v = load p
  ret
}
`)
	wantPts(t, prog, r, "v", "b", "c")
}

func TestFlowThroughDirectCall(t *testing.T) {
	prog, _, r := pipeline(t, `
func setter(q, val) {
entry:
  store q, val
  ret
}
func main() {
entry:
  p = alloc a 0
  x = alloc b 0
  call setter(p, x)
  v = load p
  ret
}
`)
	wantPts(t, prog, r, "v", "b")
}

func TestFlowSensitiveAcrossCallOrder(t *testing.T) {
	// The load happens before the mutating call: must not see the
	// callee's store.
	prog, _, r := pipeline(t, `
func setter(q, val) {
entry:
  store q, val
  ret
}
func main() {
entry:
  p = alloc a 0
  x = alloc b 0
  v = load p
  call setter(p, x)
  w = load p
  ret
}
`)
	wantPts(t, prog, r, "v")
	wantPts(t, prog, r, "w", "b")
}

func TestIndirectCallOnTheFly(t *testing.T) {
	prog, _, r := pipeline(t, `
func setter(q, val) {
entry:
  store q, val
  ret
}
func main() {
entry:
  p = alloc a 0
  x = alloc b 0
  fp = funcaddr setter
  calli fp(p, x)
  v = load p
  ret
}
`)
	wantPts(t, prog, r, "v", "b")
	// Call graph contains exactly setter.
	var call *ir.Instr
	prog.FuncByName("main").ForEachInstr(func(in *ir.Instr) {
		if in.IsIndirectCall() {
			call = in
		}
	})
	callees := r.CalleesOf(call)
	if len(callees) != 1 || callees[0].Name != "setter" {
		t.Errorf("CalleesOf = %v", callees)
	}
}

func TestFlowSensitiveCallGraphSmallerThanAndersen(t *testing.T) {
	// fp is overwritten before the call: flow-sensitively only g2 is
	// callable, while Andersen reports both.
	prog, g, r := pipeline(t, `
func g1() {
entry:
  a1 = alloc o1 0
  ret a1
}
func g2() {
entry:
  a2 = alloc o2 0
  ret a2
}
func main() {
entry:
  c = alloc cell 0
  f1 = funcaddr g1
  f2 = funcaddr g2
  store c, f1
  store c, f2
  fp = load c
  q = calli fp()
  ret
}
`)
	// The cell is a singleton: the second store strongly updates it, so
	// fp loads only &g2.
	wantPts(t, prog, r, "fp", "&g2")
	wantPts(t, prog, r, "q", "o2")
	var call *ir.Instr
	prog.FuncByName("main").ForEachInstr(func(in *ir.Instr) {
		if in.IsIndirectCall() {
			call = in
		}
	})
	if callees := r.CalleesOf(call); len(callees) != 1 || callees[0].Name != "g2" {
		t.Errorf("FS callees = %v, want [g2]", callees)
	}
	if aux := g.Aux.CalleesOf(call); len(aux) != 2 {
		t.Errorf("aux callees = %v, want both", aux)
	}
}

func TestReturnValueFlow(t *testing.T) {
	prog, _, r := pipeline(t, `
func mk() {
entry:
  x = alloc fresh 0
  ret x
}
func main() {
entry:
  v = call mk()
  ret
}
`)
	wantPts(t, prog, r, "v", "fresh")
}

func TestLoopAccumulates(t *testing.T) {
	prog, _, r := pipeline(t, `
func main() {
entry:
  p = alloc.heap cell 0
  x = alloc seed 0
  store p, x
  jmp header
header:
  br body, done
body:
  v = load p
  w = alloc.heap item 0
  store w, v
  store p, w
  jmp header
done:
  z = load p
  ret
}
`)
	wantPts(t, prog, r, "z", "seed", "item")
	// v accumulates both across iterations.
	wantPts(t, prog, r, "v", "seed", "item")
}

func TestFieldFlow(t *testing.T) {
	prog, _, r := pipeline(t, `
func main() {
entry:
  s = alloc agg 2
  f0 = field s, 0
  f1 = field s, 1
  x = alloc t1 0
  y = alloc t2 0
  store f0, x
  store f1, y
  v0 = load f0
  v1 = load f1
  ret
}
`)
	wantPts(t, prog, r, "v0", "t1")
	wantPts(t, prog, r, "v1", "t2")
}

func TestGlobalsAcrossFunctions(t *testing.T) {
	prog, _, r := pipeline(t, `
global g 0
func init2() {
entry:
  x = alloc boot 0
  store g, x
  ret
}
func main() {
entry:
  call init2()
  v = load g
  ret
}
`)
	wantPts(t, prog, r, "v", "boot")
}

// Soundness ordering: flow-sensitive results must be a subset of the
// auxiliary (flow-insensitive) results for every top-level pointer, on
// random programs.
func TestQuickSubsetOfAndersen(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			prog := workload.Random(seed, workload.DefaultRandomConfig())
			aux := andersen.Analyze(prog)
			mssa := memssa.Build(prog, aux)
			g := svfg.Build(prog, aux, mssa)
			r := Solve(g)
			for v := ir.ID(1); int(v) < prog.NumValues(); v++ {
				if !prog.IsPointer(v) {
					continue
				}
				if !r.PointsTo(v).SubsetOf(aux.PointsTo(v)) {
					t.Fatalf("pts_fs(%s) = %v ⊄ pts_aux = %v",
						prog.NameOf(v), r.PointsTo(v), aux.PointsTo(v))
				}
			}
			// FS call graph ⊆ aux call graph.
			for _, f := range prog.Funcs {
				f.ForEachInstr(func(in *ir.Instr) {
					if in.Op != ir.Call {
						return
					}
					auxSet := map[*ir.Function]bool{}
					for _, c := range aux.CalleesOf(in) {
						auxSet[c] = true
					}
					for _, c := range r.CalleesOf(in) {
						if !auxSet[c] {
							t.Fatalf("FS callee %s not in aux call graph", c.Name)
						}
					}
				})
			}
		})
	}
}

func TestStatsReasonable(t *testing.T) {
	prog := workload.Random(7, workload.DefaultRandomConfig())
	g := buildGraph(prog)
	r := Solve(g)
	if r.Stats.NodesProcessed == 0 || r.Stats.Propagations == 0 {
		t.Errorf("stats empty: %+v", r.Stats)
	}
	if r.Stats.PtsSets == 0 {
		t.Error("no IN/OUT sets recorded")
	}
}

// TestSolveEffortPinned pins the solver's effort, not just its answers,
// on four Table II profiles: the worklist pops, the unions attempted and
// won, the IN/OUT sets stored and their words, and the resolved call
// edges. A change to the storage layout must keep the worklist order and
// the set counts, so these stay fixed until the algorithm itself changes.
func TestSolveEffortPinned(t *testing.T) {
	for _, tc := range []struct {
		name                                    string
		pops, props, changed, sets, words, call int
	}{
		{"du", 62221, 1235838, 175752, 19905, 69800, 82},
		{"dpkg", 120057, 2759793, 244455, 34458, 74635, 162},
		{"nano", 114163, 2894850, 361644, 37199, 150276, 119},
		{"psql", 277340, 3898810, 895981, 48530, 290993, 173},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := Solve(buildGraph(workload.ProfileByName(tc.name).Build())).Stats
			got := [6]int{st.NodesProcessed, st.Propagations, st.Changed, st.PtsSets, st.PtsWords, st.CallEdges}
			want := [6]int{tc.pops, tc.props, tc.changed, tc.sets, tc.words, tc.call}
			if got != want {
				t.Errorf("NodesProcessed, Propagations, Changed, PtsSets, PtsWords, CallEdges = %v, want %v", got, want)
			}
		})
	}
}

var solveSink *Result

// BenchmarkSolve times the SFS solve alone, over a graph built once;
// each iteration solves a fresh clone, since on-the-fly resolution adds
// edges to it.
func BenchmarkSolve(b *testing.B) {
	for _, name := range []string{"nano", "psql", "dpkg"} {
		b.Run(name, func(b *testing.B) {
			g := buildGraph(workload.ProfileByName(name).Build())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := g.Clone()
				b.StartTimer()
				solveSink = Solve(c)
			}
		})
	}
}
