package core

import (
	"testing"

	"vsfs/internal/andersen"
	"vsfs/internal/ir"
	"vsfs/internal/memssa"
	"vsfs/internal/sfs"
	"vsfs/internal/svfg"
)

// dupNameProgram builds a program whose indirect call resolves to two
// distinct functions that share a display name: Function.Name is
// mutable, so clients can (and do) produce name collisions after
// construction, and CalleesOf must not fall back to map iteration
// order when that happens.
func dupNameProgram(t *testing.T) (*ir.Program, *ir.Function, *ir.Function, *ir.Instr) {
	t.Helper()
	prog := ir.NewProgram()
	h1 := prog.NewFunction("h1", 0)
	h2 := prog.NewFunction("h2", 0)
	mainFn := prog.NewFunction("main", 0)

	b := mainFn.Entry
	fp1 := prog.NewPointer("fp1")
	mainFn.EmitAlloc(b, fp1, prog.FuncObj(h1))
	fp2 := prog.NewPointer("fp2")
	mainFn.EmitAlloc(b, fp2, prog.FuncObj(h2))
	ph := prog.NewPointer("ph")
	mainFn.EmitPhi(b, ph, fp1, fp2)
	call := mainFn.EmitCallIndirect(b, ir.None, ph)

	if err := prog.Finalize(); err != nil {
		t.Fatalf("finalize: %v", err)
	}
	// Collide the names after construction (NewFunction rejects
	// duplicates up front, but the field is public and mutable).
	h1.Name, h2.Name = "handler", "handler"
	return prog, h1, h2, call
}

// TestCalleesOfDuplicateNamesDeterministic is the regression test for
// the insertion sort keyed on Name alone: with two equally-named
// callees it returned map-iteration order, differing from call to
// call. Ties must break by entry label (creation order), in both
// flow-sensitive solvers.
func TestCalleesOfDuplicateNamesDeterministic(t *testing.T) {
	prog, h1, h2, call := dupNameProgram(t)
	aux := andersen.Analyze(prog)
	mssa := memssa.Build(prog, aux)
	for _, solver := range []struct {
		name  string
		solve func(*svfg.Graph) *sfs.TopLevel
	}{
		{"vsfs", func(g *svfg.Graph) *sfs.TopLevel { return &Solve(g).TopLevel }},
		{"sfs", func(g *svfg.Graph) *sfs.TopLevel { return &sfs.Solve(g).TopLevel }},
	} {
		r := solver.solve(svfg.Build(prog, aux, mssa))
		for i := 0; i < 64; i++ {
			got := r.CalleesOf(call)
			if len(got) != 2 {
				t.Fatalf("%s: CalleesOf = %v, want both handlers", solver.name, got)
			}
			if got[0] != h1 || got[1] != h2 {
				t.Fatalf("%s, iteration %d: CalleesOf order = [%p %p], want [h1=%p h2=%p] (entry-label tie-break)",
					solver.name, i, got[0], got[1], h1, h2)
			}
		}
	}
}
