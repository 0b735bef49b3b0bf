package svfg_test

import (
	"slices"
	"testing"

	"vsfs/internal/andersen"
	"vsfs/internal/core"
	"vsfs/internal/ir"
	"vsfs/internal/memssa"
	"vsfs/internal/sfs"
	"vsfs/internal/svfg"
	"vsfs/internal/workload"
)

// slotGraphShortProfiles are the profiles checked under -short, and
// under the race detector, which slows the large ones past the test
// timeout.
var slotGraphShortProfiles = map[string]bool{"du": true, "dpkg": true, "nano": true, "psql": true}

// checkSlotGraph verifies the slot graph's structural contract: every
// successor of an o-slot is an o-slot of its own node, no successor list
// repeats a slot, IndirSuccs is SlotSuccs mapped through SlotNode, and
// the object index lists exactly each object's slots, ascending.
func checkSlotGraph(t *testing.T, g *svfg.Graph) {
	t.Helper()
	for l := uint32(0); int(l) < len(g.Prog.Instrs); l++ {
		lo, hi := g.SlotRange(l)
		for s := lo; s < hi; s++ {
			if g.SlotNode(s) != l {
				t.Fatalf("slot %d in ℓ%d's range has node ℓ%d", s, l, g.SlotNode(s))
			}
			o := g.SlotObj(s)
			if got, ok := g.Slot(l, o); !ok || got != s {
				t.Fatalf("Slot(ℓ%d, #%d) = %d, %v; want %d", l, o, got, ok, s)
			}
			succs := g.SlotSuccs(s)
			nodes := make([]uint32, len(succs))
			for i, t32 := range succs {
				tgt := int(t32)
				if tgt >= g.NumSlots() {
					t.Fatalf("slot %d: successor %d is not a slot", s, tgt)
				}
				if g.SlotObj(tgt) != o {
					t.Fatalf("slot %d (ℓ%d, #%d): successor %d carries #%d", s, l, o, tgt, g.SlotObj(tgt))
				}
				n := g.SlotNode(tgt)
				if lo2, hi2 := g.SlotRange(n); tgt < lo2 || tgt >= hi2 {
					t.Fatalf("slot %d: successor %d outside ℓ%d's range [%d, %d)", s, tgt, n, lo2, hi2)
				}
				if slices.Contains(succs[:i], t32) {
					t.Fatalf("slot %d: successor %d repeated in %v", s, tgt, succs)
				}
				nodes[i] = n
			}
			if got := g.IndirSuccs(l, o); !slices.Equal(got, nodes) {
				t.Fatalf("IndirSuccs(ℓ%d, #%d) = %v, want %v", l, o, got, nodes)
			}
		}
	}
	total := 0
	for o := ir.Obj(0); int(o) < g.Prog.NumObjects(); o++ {
		slots := g.ObjSlots(o)
		if !slices.IsSorted(slots) {
			t.Fatalf("ObjSlots(#%d) = %v, not ascending", o, slots)
		}
		for _, s := range slots {
			if g.SlotObj(int(s)) != o {
				t.Fatalf("ObjSlots(#%d) lists slot %d of #%d", o, s, g.SlotObj(int(s)))
			}
		}
		total += len(slots)
	}
	if total != g.NumSlots() {
		t.Fatalf("object index lists %d slots, want %d", total, g.NumSlots())
	}
}

// TestSlotGraphInvariants checks the slot graph of every profile as
// built and after an SFS and a VSFS solve on clones, so the edges both
// solvers add during on-the-fly call-graph resolution are covered.
func TestSlotGraphInvariants(t *testing.T) {
	for _, p := range workload.Profiles() {
		t.Run(p.Name, func(t *testing.T) {
			if (testing.Short() || raceEnabled) && !slotGraphShortProfiles[p.Name] {
				t.Skip("large profile; skipped under -short and -race")
			}
			prog := p.Build()
			aux := andersen.Analyze(prog)
			g := svfg.Build(prog, aux, memssa.Build(prog, aux))
			checkSlotGraph(t, g)

			gs := g.Clone()
			sfs.Solve(gs)
			checkSlotGraph(t, gs)

			gv := g.Clone()
			core.Solve(gv)
			checkSlotGraph(t, gv)
		})
	}
}

// TestSuccessorListOwnership: Build adopts memory SSA's successor lists
// without copying them, while BuildAuxCallGraph starts from its own
// copy, so prewiring and solving the ablation graph built from the same
// memssa.Result leaves the on-the-fly graph's lists as they were.
func TestSuccessorListOwnership(t *testing.T) {
	prog := workload.ProfileByName("du").Build()
	aux := andersen.Analyze(prog)
	mssa := memssa.Build(prog, aux)
	g := svfg.Build(prog, aux, mssa)
	before := make([][]uint32, g.NumSlots())
	for s := range before {
		before[s] = slices.Clone(g.SlotSuccs(s))
	}

	pre := svfg.BuildAuxCallGraph(prog, aux, mssa)
	core.Solve(pre)
	grown := 0
	for s := range before {
		if !slices.Equal(g.SlotSuccs(s), before[s]) || !slices.Equal(mssa.Succs[s], before[s]) {
			t.Fatalf("slot %d: successors %v after the ablation solve, were %v", s, g.SlotSuccs(s), before[s])
		}
		if len(pre.SlotSuccs(s)) > len(before[s]) {
			grown++
		}
	}
	if grown == 0 {
		t.Fatal("the ablation graph gained no edges: the test checks nothing")
	}

	// An edge the on-the-fly graph gains lands in memssa's own lists.
	for s := range before {
		for _, d := range pre.SlotSuccs(s)[len(before[s]):] {
			if !g.AddIndirectEdge(g.SlotNode(s), g.SlotNode(int(d)), g.SlotObj(s)) {
				t.Fatalf("slot %d: prewired edge to slot %d already in the on-the-fly graph", s, d)
			}
			if !slices.Equal(mssa.Succs[s], g.SlotSuccs(s)) {
				t.Fatalf("slot %d: graph successors %v, memssa's %v: Build copied the lists", s, g.SlotSuccs(s), mssa.Succs[s])
			}
			return
		}
	}
}
