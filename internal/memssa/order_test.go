package memssa

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"vsfs/internal/andersen"
	"vsfs/internal/bitset"
	"vsfs/internal/cfg"
	"vsfs/internal/guard"
	"vsfs/internal/ir"
	"vsfs/internal/workload"
)

// referenceSuccs renames r's program again the plain way: a recursive
// walk of each function's dominator tree, one growing stack of slots
// per object, and one growing successor list per slot that every chain
// is appended to; then the direct calls' chains. The arena must hold
// these lists, each in the same order.
func referenceSuccs(prog *ir.Program, r *Result) [][]uint32 {
	succs := make([][]uint32, r.NumSlots())
	link := func(s, t int) { succs[s] = append(succs[s], uint32(t)) }
	phiOps := make(map[int][]int)
	stacks := make([][]int, prog.NumObjects())
	for _, f := range prog.Funcs {
		info := cfg.Compute(f)
		children := make(map[*ir.Block][]*ir.Block)
		for _, blk := range f.Blocks {
			if idom := info.Idom(blk); idom != nil {
				children[idom] = append(children[idom], blk)
			}
		}
		var visit func(blk *ir.Block)
		visit = func(blk *ir.Block) {
			var pushed []ir.Obj
			for _, in := range blk.Instrs {
				lo, hi := r.SlotRange(in.Label)
				for s := lo; s < hi; s++ {
					o := r.SlotObj(s)
					if st := stacks[o]; len(st) > 0 && in.Op != ir.MemPhi {
						link(st[len(st)-1], s)
					}
					if r.ChiOf(in.Label).Has(uint32(o)) {
						stacks[o] = append(stacks[o], s)
						pushed = append(pushed, o)
					}
				}
			}
			for _, succ := range blk.Succs {
				for _, in := range succ.Instrs {
					if in.Op != ir.MemPhi {
						break
					}
					phi, _ := r.SlotRange(in.Label)
					st := stacks[r.SlotObj(phi)]
					if len(st) > 0 && !slices.Contains(phiOps[phi], st[len(st)-1]) {
						phiOps[phi] = append(phiOps[phi], st[len(st)-1])
						link(st[len(st)-1], phi)
					}
				}
			}
			for _, c := range children[blk] {
				visit(c)
			}
			for i := len(pushed) - 1; i >= 0; i-- {
				stacks[pushed[i]] = stacks[pushed[i]][:len(stacks[pushed[i]])-1]
			}
		}
		visit(f.Entry)
	}
	for _, f := range prog.Funcs {
		f.ForEachInstr(func(in *ir.Instr) {
			if in.Op == ir.Call && in.Callee != nil {
				r.CallChains(in, in.Callee, link)
			}
		})
	}
	return succs
}

// TestArenaRowsInOrder: every row of the successor arena equals the
// reference renaming's list for its slot, in the same order, on every
// profile and on random programs.
func TestArenaRowsInOrder(t *testing.T) {
	check := func(t *testing.T, prog *ir.Program) {
		r := Build(prog, andersen.Analyze(prog))
		want := referenceSuccs(prog, r)
		if r.Succs.NumRows() != len(want) {
			t.Fatalf("arena has %d rows for %d slots", r.Succs.NumRows(), len(want))
		}
		edges := 0
		for s, list := range want {
			if row := r.Succs.Row(uint32(s)); !slices.Equal(row, list) {
				t.Fatalf("slot %d: arena row %v, reference list %v", s, row, list)
			}
			edges += len(list)
		}
		if len(r.Succs.Adj) != edges {
			t.Fatalf("arena holds %d successors, the reference lists %d", len(r.Succs.Adj), edges)
		}
	}
	for _, p := range workload.Profiles() {
		t.Run(p.Name, func(t *testing.T) {
			if testing.Short() && largestProfiles[p.Name] {
				t.Skip("largest profile; skipped under -short")
			}
			check(t, p.Build())
		})
	}
	for seed := int64(0); seed < 30; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			check(t, workload.Random(seed, workload.DefaultRandomConfig()))
		})
	}
}

// TestMemSSAByteBudget: memory SSA's own storage (the slot numbering,
// the successor arena, the μ/χ tables, the MEMPHI and CallRet slabs) is
// charged to the memory budget at its polls. A bash build under a limit
// that covers the bitset words it grows, with 64 KiB to spare,
// breaches in the memssa phase.
func TestMemSSAByteBudget(t *testing.T) {
	p := workload.ProfileByName("bash")
	prog := p.Build()
	aux := andersen.Analyze(prog)
	before := bitset.AllocatedWords()
	Build(prog, aux)
	words := bitset.AllocatedWords() - before

	prog = p.Build()
	aux = andersen.Analyze(prog)
	b := guard.NewBudget(0, words*bitset.WordBytes+64<<10, 0)
	r, err := BuildContext(guard.WithBudget(context.Background(), b), prog, aux)
	var be *guard.ErrBudgetExceeded
	if !errors.As(err, &be) || r != nil {
		t.Fatalf("memssa=%v err=%v, want nil and a budget breach", r, err)
	}
	if be.Phase != "memssa" || be.Resource != guard.ResourceMem {
		t.Fatalf("breach = %+v, want mem in phase memssa", be)
	}
}

// TestMemSSAAllocsBounded pins the flat layout: a bash build allocates
// its slot and arena arrays, one MEMPHI and one CallRet slab per
// function and its bitsets, and three per cfg.Compute, not one object
// per MEMPHI, successor list, block or frontier. Per-slot lists made
// 664,100 allocations; per-block frontier lists 9,800; now 3,718.
func TestMemSSAAllocsBounded(t *testing.T) {
	p := workload.ProfileByName("bash")
	type input struct {
		prog *ir.Program
		aux  *andersen.Result
	}
	// AllocsPerRun(1, f) calls f twice, and Build rewrites its program.
	var inputs []input
	for range 2 {
		prog := p.Build()
		inputs = append(inputs, input{prog, andersen.Analyze(prog)})
	}
	n := testing.AllocsPerRun(1, func() {
		in := inputs[0]
		inputs = inputs[1:]
		Build(in.prog, in.aux)
	})
	if n > 4500 {
		t.Fatalf("bash memory SSA made %v allocations, want at most 4,500", n)
	}
}
