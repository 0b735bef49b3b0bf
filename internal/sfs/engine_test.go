package sfs

import (
	"testing"

	"vsfs/internal/ir"
)

// TestCalleesOfSorted runs the sort through the engine's accessor, which
// both flow-sensitive solvers answer with: a callee map assembled in
// arbitrary order must come back in (name, entry label) order.
func TestCalleesOfSorted(t *testing.T) {
	mk := func(name string, label uint32) *ir.Function {
		return &ir.Function{Name: name, EntryInstr: &ir.Instr{Label: label}}
	}
	call := &ir.Instr{Label: 99}
	fns := []*ir.Function{mk("h", 3), mk("g", 2), mk("g", 1), mk("a", 7)}
	top := &TopLevel{callees: map[uint32]map[*ir.Function]bool{call.Label: {}}}
	for _, f := range fns {
		top.callees[call.Label][f] = true
	}
	for trial := 0; trial < 16; trial++ {
		got := top.CalleesOf(call)
		if len(got) != len(fns) {
			t.Fatalf("got %d callees, want %d", len(got), len(fns))
		}
		for i := 1; i < len(got); i++ {
			if ir.FuncLess(got[i], got[i-1]) {
				t.Fatalf("trial %d: callees out of order at %d: %s/%d after %s/%d",
					trial, i, got[i].Name, got[i].EntryInstr.Label,
					got[i-1].Name, got[i-1].EntryInstr.Label)
			}
		}
	}
}
