package core

import (
	"fmt"
	"testing"

	"vsfs/internal/andersen"
	"vsfs/internal/ir"
	"vsfs/internal/irparse"
	"vsfs/internal/meld"
	"vsfs/internal/memssa"
	"vsfs/internal/sfs"
	"vsfs/internal/svfg"
	"vsfs/internal/workload"
)

// TestPrewiredNoDeltaPrelabels checks the §IV-C1 remark: with the
// auxiliary call graph wired at build time, store prelabels alone
// suffice — no node is δ and no [OTF-CG]^P prelabels exist.
func TestPrewiredNoDeltaPrelabels(t *testing.T) {
	prog, err := irparse.Parse(`
func setter(q, val) {
entry:
  store q, val
  ret
}
func main() {
entry:
  p = alloc.heap a 0
  x = alloc b 0
  y = alloc c 0
  store p, y
  fp = funcaddr setter
  calli fp(p, x)
  v = load p
  ret
}
`)
	if err != nil {
		t.Fatal(err)
	}
	aux := andersen.Analyze(prog)
	mssa := memssa.Build(prog, aux)
	g := svfg.BuildAuxCallGraph(prog, aux, mssa)
	for l, d := range g.Delta {
		if d {
			t.Errorf("node %d marked δ in prewired mode", l)
		}
	}
	r := Solve(g)
	// The callee entry's consume version comes from melding, not a
	// prelabel: it must equal the caller-side yield.
	setter := prog.FuncByName("setter")
	var call *ir.Instr
	prog.FuncByName("main").ForEachInstr(func(in *ir.Instr) {
		if in.IsIndirectCall() {
			call = in
		}
	})
	mu := g.MSSA.MuOf(call.Label)
	if mu.IsEmpty() {
		t.Fatal("call has no μ objects")
	}
	a := ir.Obj(mu.Min())
	callY := r.YieldVersion(call.Label, a)
	entryC := r.ConsumeVersion(setter.EntryInstr.Label, a)
	if callY == meld.Epsilon || callY != entryC {
		t.Errorf("prewired entry did not meld caller's version: call η=%d, entry ξ=%d", callY, entryC)
	}
	// Results still correct: the heap cell accumulates both stores.
	for id := ir.ID(1); int(id) < prog.NumValues(); id++ {
		if prog.IsPointer(id) && prog.Value(id).Name == "v" {
			if got := r.PointsTo(id); got.Len() != 2 {
				t.Errorf("pts(v) = %v, want {b, c}", got)
			}
		}
	}
}

// TestPrewiredEquivalenceAndSoundness: in prewired mode SFS ≡ VSFS
// still holds, and on-the-fly results are at least as precise as
// prewired ones (pt_otf ⊆ pt_prewired ⊆ pt_aux) for every top-level
// pointer.
func TestPrewiredEquivalenceAndSoundness(t *testing.T) {
	for seed := int64(200); seed < 212; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			prog := workload.Random(seed, workload.DefaultRandomConfig())
			aux := andersen.Analyze(prog)
			mssa := memssa.Build(prog, aux)

			otf := svfg.Build(prog, aux, mssa)
			pre := svfg.BuildAuxCallGraph(prog, aux, mssa)

			sfsPre := sfs.Solve(pre.Clone())
			vsfsPre := Solve(pre.Clone())
			vsfsOtf := Solve(otf.Clone())

			for v := ir.ID(1); int(v) < prog.NumValues(); v++ {
				if !prog.IsPointer(v) {
					continue
				}
				if !sfsPre.PointsTo(v).Equal(vsfsPre.PointsTo(v)) {
					t.Fatalf("prewired SFS ≠ VSFS at %s: %v vs %v",
						prog.NameOf(v), sfsPre.PointsTo(v), vsfsPre.PointsTo(v))
				}
				if !vsfsOtf.PointsTo(v).SubsetOf(vsfsPre.PointsTo(v)) {
					t.Fatalf("OTF not ⊆ prewired at %s: %v vs %v",
						prog.NameOf(v), vsfsOtf.PointsTo(v), vsfsPre.PointsTo(v))
				}
				if !vsfsPre.PointsTo(v).SubsetOf(aux.PointsTo(v)) {
					t.Fatalf("prewired not ⊆ aux at %s", prog.NameOf(v))
				}
			}
		})
	}
}
