package memssa

import (
	"slices"
	"testing"

	"vsfs/internal/andersen"
	"vsfs/internal/ir"
	"vsfs/internal/workload"
)

// slotChains is CallChains as a per-object walk: each callee formal's
// slot looks up the matching slot at the call (or CallRet) by binary
// search. It is the reference the merge walk is checked against.
func slotChains(r *Result, call *ir.Instr, callee *ir.Function) [][2]int {
	var out [][2]int
	lo, hi := r.SlotRange(callee.EntryInstr.Label)
	for t := lo; t < hi; t++ {
		if s, ok := r.Slot(call.Label, r.SlotObj(t)); ok {
			out = append(out, [2]int{s, t})
		}
	}
	if ret := r.CallRets[call]; ret != nil {
		lo, hi = r.SlotRange(callee.ExitInstr.Label)
		for s := lo; s < hi; s++ {
			if t, ok := r.Slot(ret.Label, r.SlotObj(s)); ok {
				out = append(out, [2]int{s, t})
			}
		}
	}
	return out
}

// TestCallChainsMatchesSlotWalk: on every profile, for every call and
// each callee the auxiliary call graph gives it, CallChains links the
// same slot pairs in the same order as the per-object walk.
func TestCallChainsMatchesSlotWalk(t *testing.T) {
	for _, p := range workload.Profiles() {
		t.Run(p.Name, func(t *testing.T) {
			if testing.Short() && largestProfiles[p.Name] {
				t.Skip("largest profiles skipped under -short")
			}
			prog := p.Build()
			aux := andersen.Analyze(prog)
			r := Build(prog, aux)
			calls := 0
			for _, f := range prog.Funcs {
				f.ForEachInstr(func(in *ir.Instr) {
					if in.Op != ir.Call {
						return
					}
					callees := aux.CalleesOf(in)
					if in.Callee != nil {
						callees = []*ir.Function{in.Callee}
					}
					for _, callee := range callees {
						var got [][2]int
						r.CallChains(in, callee, func(s, t int) { got = append(got, [2]int{s, t}) })
						if want := slotChains(r, in, callee); !slices.Equal(got, want) {
							t.Fatalf("call ℓ%d → %s: CallChains %v, per-object walk %v",
								in.Label, callee.Name, got, want)
						}
						calls++
					}
				})
			}
			if calls == 0 {
				t.Fatal("no call edges checked")
			}
		})
	}
}
