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
// successor of an o-slot, static or gained, is an o-slot of its own
// node, no slot's successors repeat a slot, IndirSuccs is them mapped
// through SlotNode, and the object index lists exactly each object's
// slots, ascending.
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
			succs := g.AppendGained(g.SlotSuccs(s), s)
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

// TestSuccessorListOwnership: memory SSA's successor arena is immutable
// once built. Build and BuildAuxCallGraph both share it; the edges a
// graph gains, by prewiring or solving, land only in that graph's own
// overflow, so the ablation graph never writes into the on-the-fly
// graph, nor the on-the-fly graph into the ablation graph.
func TestSuccessorListOwnership(t *testing.T) {
	prog := workload.ProfileByName("du").Build()
	aux := andersen.Analyze(prog)
	mssa := memssa.Build(prog, aux)
	off, adj := slices.Clone(mssa.Succs.Off), slices.Clone(mssa.Succs.Adj)
	arenaUnchanged := func(when string) {
		t.Helper()
		if !slices.Equal(mssa.Succs.Off, off) || !slices.Equal(mssa.Succs.Adj, adj) {
			t.Fatalf("memory SSA's arena changed %s", when)
		}
	}
	g := svfg.Build(prog, aux, mssa)

	pre := svfg.BuildAuxCallGraph(prog, aux, mssa)
	core.Solve(pre)
	arenaUnchanged("while the ablation graph was prewired and solved")
	preAdded := make([][]uint32, g.NumSlots())
	grown := 0
	for s := range g.NumSlots() {
		static, added := g.SlotSuccs(s), g.AppendGained(nil, s)
		if !slices.Equal(static, mssa.Succs.Row(uint32(s))) || len(added) != 0 {
			t.Fatalf("slot %d: successors %v + %v after the ablation solve, want memory SSA's %v", s, static, added, mssa.Succs.Row(uint32(s)))
		}
		preStatic, gained := pre.SlotSuccs(s), pre.AppendGained(nil, s)
		if !slices.Equal(preStatic, static) {
			t.Fatalf("slot %d: the ablation graph's static successors %v, memory SSA's %v", s, preStatic, static)
		}
		preAdded[s] = gained
		if len(gained) > 0 {
			grown++
		}
	}
	if grown == 0 {
		t.Fatal("the ablation graph gained no edges: the test checks nothing")
	}

	// Wiring the on-the-fly graph as the ablation graph was prewired
	// gains the same edges, in the same order, into its own overflow.
	preEdges := pre.NumIndirectEdges
	for _, f := range prog.Funcs {
		f.ForEachInstr(func(in *ir.Instr) {
			if in.IsIndirectCall() {
				for _, callee := range aux.CalleesOf(in) {
					g.AddCallEdges(in, callee, nil)
				}
			}
		})
	}
	arenaUnchanged("while the on-the-fly graph gained edges")
	if g.NumIndirectEdges != preEdges || pre.NumIndirectEdges != preEdges {
		t.Fatalf("%d edges on the fly and %d in the ablation graph, which had %d", g.NumIndirectEdges, pre.NumIndirectEdges, preEdges)
	}
	for s := range g.NumSlots() {
		added, gained := g.AppendGained(nil, s), pre.AppendGained(nil, s)
		if !slices.Equal(added, preAdded[s]) || !slices.Equal(gained, preAdded[s]) {
			t.Fatalf("slot %d: gained %v on the fly, %v in the ablation graph, which had %v", s, added, gained, preAdded[s])
		}
	}
}

// TestCloneSharesArena: a clone shares its graph's static arena, and an
// edge either side gains after cloning is invisible to the other.
func TestCloneSharesArena(t *testing.T) {
	prog := workload.ProfileByName("du").Build()
	aux := andersen.Analyze(prog)
	g := svfg.Build(prog, aux, memssa.Build(prog, aux))
	c := g.Clone()
	core.Solve(c)

	gained := make([][]uint32, g.NumSlots())
	grown := 0
	for s := range g.NumSlots() {
		static, added := g.SlotSuccs(s), g.AppendGained(nil, s)
		cStatic, cAdded := c.SlotSuccs(s), c.AppendGained(nil, s)
		if len(added) != 0 {
			t.Fatalf("slot %d: the clone's solve added %v to the original", s, added)
		}
		if len(static) > 0 && &static[0] != &cStatic[0] {
			t.Fatalf("slot %d: the clone copied the static arena", s)
		}
		gained[s] = cAdded
		if len(cAdded) > 0 {
			grown++
		}
	}
	if grown == 0 {
		t.Fatal("the clone gained no edges: the test checks nothing")
	}

	// The original wires every indirect call to every auxiliary callee;
	// the clone sees none of it, and a clone of the original starts with
	// all of it.
	for _, f := range prog.Funcs {
		f.ForEachInstr(func(in *ir.Instr) {
			if in.IsIndirectCall() {
				for _, callee := range aux.CalleesOf(in) {
					g.AddCallEdges(in, callee, nil)
				}
			}
		})
	}
	d := g.Clone()
	total := 0
	for s := range g.NumSlots() {
		cAdded, added, dAdded := c.AppendGained(nil, s), g.AppendGained(nil, s), d.AppendGained(nil, s)
		if !slices.Equal(cAdded, gained[s]) {
			t.Fatalf("slot %d: the clone's gained %v became %v when the original gained edges", s, gained[s], cAdded)
		}
		if !slices.Equal(dAdded, added) {
			t.Fatalf("slot %d: a clone of the original gained %v, the original %v", s, dAdded, added)
		}
		total += len(added)
	}
	if total == 0 {
		t.Fatal("the original gained no edges: the test checks nothing")
	}
}
