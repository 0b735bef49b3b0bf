package core

import (
	"fmt"
	"testing"

	"vsfs/internal/andersen"
	"vsfs/internal/figure2"
	"vsfs/internal/ir"
	"vsfs/internal/irparse"
	"vsfs/internal/meld"
	"vsfs/internal/memssa"
	"vsfs/internal/sfs"
	"vsfs/internal/svfg"
	"vsfs/internal/workload"
)

func pipeline(t *testing.T, src string) (*ir.Program, *Result) {
	t.Helper()
	prog, err := irparse.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	aux := andersen.Analyze(prog)
	mssa := memssa.Build(prog, aux)
	g := svfg.Build(prog, aux, mssa)
	return prog, Solve(g)
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

func wantPts(t *testing.T, prog *ir.Program, r *Result, v string, want ...string) {
	t.Helper()
	got := map[string]bool{}
	r.PointsTo(varByName(t, prog, v)).ForEach(func(o uint32) {
		got[prog.ObjValue(ir.Obj(o)).Name] = true
	})
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
	prog, r := pipeline(t, `
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

func TestWeakUpdateAccumulates(t *testing.T) {
	prog, r := pipeline(t, `
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

func TestInterproceduralFlow(t *testing.T) {
	prog, r := pipeline(t, `
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
	prog, r := pipeline(t, `
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
	var call *ir.Instr
	prog.FuncByName("main").ForEachInstr(func(in *ir.Instr) {
		if in.IsIndirectCall() {
			call = in
		}
	})
	if callees := r.CalleesOf(call); len(callees) != 1 || callees[0].Name != "setter" {
		t.Errorf("CalleesOf = %v", callees)
	}
}

// TestVersioningFigure9 checks the consume/yield assignments of the
// paper's Figures 5 and 9 on the motivating fragment.
func TestVersioningFigure9(t *testing.T) {
	g, l, a := figure2.Build()
	r := Solve(g)

	k1 := r.YieldVersion(l[1], a)
	k2 := r.YieldVersion(l[2], a)
	if k1 == meld.Epsilon || k2 == meld.Epsilon || k1 == k2 {
		t.Fatalf("store yields not distinct prelabels: κ1=%d κ2=%d", k1, k2)
	}
	// ξℓ2(o) = ξℓ3(o) = ηℓ1(o) = κ1.
	if got := r.ConsumeVersion(l[2], a); got != k1 {
		t.Errorf("ξℓ2 = %d, want κ1=%d", got, k1)
	}
	if got := r.ConsumeVersion(l[3], a); got != k1 {
		t.Errorf("ξℓ3 = %d, want κ1=%d", got, k1)
	}
	// ξℓ4(o) = ξℓ5(o) = κ1 ⊙ κ2, distinct from both.
	c4, c5 := r.ConsumeVersion(l[4], a), r.ConsumeVersion(l[5], a)
	if c4 != c5 {
		t.Errorf("ξℓ4 = %d ≠ ξℓ5 = %d", c4, c5)
	}
	if c4 == k1 || c4 == k2 || c4 == meld.Epsilon {
		t.Errorf("ξℓ4 = %d not a fresh meld of κ1, κ2", c4)
	}
	// Loads yield what they consume ([INTERNAL]^V).
	if r.YieldVersion(l[3], a) != k1 {
		t.Errorf("ηℓ3 = %d, want κ1", r.YieldVersion(l[3], a))
	}
	if r.YieldVersion(l[4], a) != c4 {
		t.Error("ηℓ4 ≠ ξℓ4")
	}
	// ℓ1 consumes ε (nothing reaches it).
	if r.ConsumeVersion(l[1], a) != meld.Epsilon {
		t.Errorf("ξℓ1 = %d, want ε", r.ConsumeVersion(l[1], a))
	}
}

// TestMotivatingFigure2 checks the headline of the example: same points-to
// results as SFS with 3 points-to sets instead of 6 and 2 propagation
// constraints instead of 6.
func TestMotivatingFigure2(t *testing.T) {
	g, _, _ := figure2.Build()
	sfsRes := sfs.Solve(g.Clone())
	vsfsRes := Solve(g.Clone())
	prog := g.Prog

	// Identical observable results.
	for _, name := range []string{"v3", "v4", "v5"} {
		v := varByName(t, prog, name)
		if !sfsRes.PointsTo(v).Equal(vsfsRes.PointsTo(v)) {
			t.Errorf("pts(%s): SFS %v ≠ VSFS %v", name, sfsRes.PointsTo(v), vsfsRes.PointsTo(v))
		}
	}
	// v3 sees only the first store; v4/v5 see both.
	if got := sfsRes.PointsTo(varByName(t, prog, "v3")).Len(); got != 1 {
		t.Errorf("|pts(v3)| = %d, want 1", got)
	}
	if got := sfsRes.PointsTo(varByName(t, prog, "v4")).Len(); got != 2 {
		t.Errorf("|pts(v4)| = %d, want 2", got)
	}

	// Storage: SFS keeps 6 sets for o (IN at ℓ2..ℓ5, OUT at ℓ1, ℓ2);
	// VSFS keeps 3 (κ1, κ2, κ1⊙κ2).
	if sfsRes.Stats.PtsSets != 6 {
		t.Errorf("SFS PtsSets = %d, want 6", sfsRes.Stats.PtsSets)
	}
	if vsfsRes.Stats.PtsSets != 3 {
		t.Errorf("VSFS PtsSets = %d, want 3", vsfsRes.Stats.PtsSets)
	}
	// Constraints: 6 edges for SFS vs 2 version constraints for VSFS.
	if g.NumIndirectEdges != 6 {
		t.Errorf("indirect edges = %d, want 6", g.NumIndirectEdges)
	}
	if vsfsRes.Stats.VersionConstraints != 2 {
		t.Errorf("VSFS version constraints = %d, want 2", vsfsRes.Stats.VersionConstraints)
	}
}

// equalResults asserts the precision-equivalence claim of Section IV-E:
// SFS and VSFS agree on every top-level points-to set, on the resolved
// call graph, and on the points-to set of every object consumed at every
// load.
func equalResults(t *testing.T, prog *ir.Program, g *svfg.Graph, s *sfs.Result, v *Result) {
	t.Helper()
	for id := ir.ID(1); int(id) < prog.NumValues(); id++ {
		if !prog.IsPointer(id) {
			continue
		}
		if !s.PointsTo(id).Equal(v.PointsTo(id)) {
			t.Fatalf("pts(%s): SFS %v ≠ VSFS %v", prog.NameOf(id), s.PointsTo(id), v.PointsTo(id))
		}
	}
	for _, f := range prog.Funcs {
		f.ForEachInstr(func(in *ir.Instr) {
			switch in.Op {
			case ir.Call:
				sc, vc := s.CalleesOf(in), v.CalleesOf(in)
				if len(sc) != len(vc) {
					t.Fatalf("call graph differs at %v: SFS %v, VSFS %v", in.Op, sc, vc)
				}
				for i := range sc {
					if sc[i] != vc[i] {
						t.Fatalf("call graph differs: %v vs %v", sc, vc)
					}
				}
			case ir.Load:
				g.MSSA.MuOf(in.Label).ForEach(func(o uint32) {
					ss := s.ConsumedSet(in.Label, ir.Obj(o))
					vs := v.ConsumedSet(in.Label, ir.Obj(o))
					if !ss.Equal(vs) {
						t.Fatalf("consumed set of %s at load %d: SFS %v ≠ VSFS %v",
							prog.ObjValue(ir.Obj(o)).Name, in.Label, ss, vs)
					}
				})
			}
		})
	}
}

// TestQuickEquivalenceWithSFS is the paper's central claim, checked on a
// spread of random programs.
func TestQuickEquivalenceWithSFS(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			prog := workload.Random(seed, workload.DefaultRandomConfig())
			aux := andersen.Analyze(prog)
			mssa := memssa.Build(prog, aux)
			g := svfg.Build(prog, aux, mssa)
			sfsRes := sfs.Solve(g.Clone())
			vsfsRes := Solve(g.Clone())
			equalResults(t, prog, g, sfsRes, vsfsRes)

			// The storage claim: VSFS never keeps more per-object sets.
			if vsfsRes.Stats.PtsSets > sfsRes.Stats.PtsSets {
				t.Errorf("VSFS stores more sets (%d) than SFS (%d)",
					vsfsRes.Stats.PtsSets, sfsRes.Stats.PtsSets)
			}
		})
	}
}

func TestVersioningStatsPopulated(t *testing.T) {
	prog := workload.Random(3, workload.DefaultRandomConfig())
	aux := andersen.Analyze(prog)
	mssa := memssa.Build(prog, aux)
	g := svfg.Build(prog, aux, mssa)
	r := Solve(g)
	vs := r.Stats.Versioning
	if vs.Prelabels == 0 || vs.DistinctVersions <= 1 {
		t.Errorf("versioning stats look empty: %+v", vs)
	}
	if vs.ConsumeEntries == 0 || vs.YieldEntries == 0 {
		t.Errorf("no consume/yield entries: %+v", vs)
	}
}
