package fsicfg

import (
	"fmt"
	"testing"

	"vsfs/internal/andersen"
	"vsfs/internal/core"
	"vsfs/internal/ir"
	"vsfs/internal/irparse"
	"vsfs/internal/memssa"
	"vsfs/internal/sfs"
	"vsfs/internal/svfg"
	"vsfs/internal/workload"
)

func pipeline(t *testing.T, src string) (*ir.Program, *svfg.Graph, *Result) {
	t.Helper()
	prog, err := irparse.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	aux := andersen.Analyze(prog)
	mssa := memssa.Build(prog, aux)
	g := svfg.Build(prog, aux, mssa)
	return prog, g, Solve(g)
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

func TestStrongUpdate(t *testing.T) {
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

func TestBranchMergeAndCall(t *testing.T) {
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
  y = alloc c 0
  br l, rr
l:
  store p, x
  jmp j
rr:
  call setter(p, y)
  jmp j
j:
  v = load p
  ret
}
`)
	wantPts(t, prog, r, "v", "b", "c")
}

func TestIndirectCall(t *testing.T) {
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

// TestQuickOrderingChain checks the precision chain on random programs:
// fsicfg ⊆ sfs ≡ vsfs ⊆ andersen for every top-level pointer.
func TestQuickOrderingChain(t *testing.T) {
	for seed := int64(100); seed < 115; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := workload.DefaultRandomConfig()
			cfg.InstrsPerFunc = 25 // the oracle is quadratic-ish; keep it small
			cfg.Funcs = 4
			prog := workload.Random(seed, cfg)
			aux := andersen.Analyze(prog)
			mssa := memssa.Build(prog, aux)
			g := svfg.Build(prog, aux, mssa)

			oracle := Solve(g.Clone())
			sfsRes := sfs.Solve(g.Clone())
			vsfsRes := core.Solve(g.Clone())

			for v := ir.ID(1); int(v) < prog.NumValues(); v++ {
				if !prog.IsPointer(v) {
					continue
				}
				o := oracle.PointsTo(v)
				sf := sfsRes.PointsTo(v)
				vf := vsfsRes.PointsTo(v)
				an := aux.PointsTo(v)
				if !o.SubsetOf(sf) {
					t.Fatalf("pts_icfg(%s) = %v ⊄ pts_sfs = %v", prog.NameOf(v), o, sf)
				}
				if !sf.Equal(vf) {
					t.Fatalf("pts_sfs(%s) = %v ≠ pts_vsfs = %v", prog.NameOf(v), sf, vf)
				}
				if !sf.SubsetOf(an) {
					t.Fatalf("pts_sfs(%s) = %v ⊄ pts_aux = %v", prog.NameOf(v), sf, an)
				}
			}
		})
	}
}

func TestStatsPopulated(t *testing.T) {
	_, _, r := pipeline(t, `
func main() {
entry:
  p = alloc a 0
  x = alloc b 0
  store p, x
  v = load p
  ret
}
`)
	if r.Stats.NodesProcessed == 0 || r.Stats.EnvSets == 0 {
		t.Errorf("stats empty: %+v", r.Stats)
	}
}
