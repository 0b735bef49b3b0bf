package svfg

import (
	"fmt"
	"strings"

	"vsfs/internal/ir"
)

// WitnessStep is one hop of a value-flow explanation.
type WitnessStep struct {
	Label uint32
	Instr *ir.Instr
	Note  string
}

// Witness is a value-flow path explaining why a pointer may point to an
// object: it starts at one of the object's origin sites (an allocation,
// or the FIELD instruction that derived a field object) and follows
// direct (top-level) and indirect (through-memory) value-flow edges to
// the pointer's definition.
type Witness struct {
	Var   ir.ID
	Obj   ir.Obj
	Steps []WitnessStep
}

// Format renders the witness for humans.
func (w *Witness) Format(prog *ir.Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "why may %s point to %s:\n", prog.NameOf(w.Var), prog.ObjValue(w.Obj).Name)
	for i, s := range w.Steps {
		fmt.Fprintf(&b, "  %2d. [%s] ℓ%d %s\n", i+1, s.Note, s.Label, describe(prog, s.Instr))
	}
	return b.String()
}

// ExplainPointsTo searches the SVFG for a value-flow witness from obj's
// allocation site to the definition of v, exploring the same flows the
// solvers propagate along — direct def-use edges via variables whose
// points-to sets contain obj, interprocedural argument/return copies,
// and indirect edges labelled with objects that may hold obj. The
// membership oracle holds(x, o) answers from solved facts: for a
// pointer x its points-to set, for an object x (by value ID) its
// summary.
//
// It returns nil if v's definition is unreachable from the allocation
// under the oracle — which, for a sound solver, means pts(v) should not
// contain obj. The witness is an explanation aid, not a proof: the path
// is feasible in the SVFG over-approximation, like the analysis result
// itself.
func (g *Graph) ExplainPointsTo(holds func(x ir.ID, o ir.Obj) bool, v ir.ID, obj ir.Obj) *Witness {
	prog := g.Prog
	objID := prog.ObjID(obj)

	// Find every origin site of obj. Most objects have exactly one
	// allocation, but a function object is re-allocated by every
	// funcaddr of its function, and a field object is born at FIELD
	// instructions, not allocations: a FIELD's def holds only objects
	// the instruction itself derived, so holds(def, obj) identifies the
	// deriving sites without re-running the analysis. Seeding the search
	// from one arbitrary site (as this function once did) made witnesses
	// for facts reached from the other sites unfindable.
	var origins []*ir.Instr
	for _, f := range prog.Funcs {
		f.ForEachInstr(func(in *ir.Instr) {
			switch {
			case in.Op == ir.Alloc && in.Obj == objID:
				origins = append(origins, in)
			case in.Op == ir.Field && in.Def != ir.None && holds(in.Def, obj):
				origins = append(origins, in)
			}
		})
	}
	if len(origins) == 0 {
		return nil
	}

	target := g.DefSite[v]
	if target == 0 {
		return nil
	}

	// Breadth-first search over value-flow successors. A state is a
	// node; we move along direct edges def(x)→use when x may point to
	// obj, and along indirect edges ℓ --o--> ℓ' when o may hold obj.
	type edgeKind struct {
		to   uint32
		note string
	}
	succsOf := func(l uint32) []edgeKind {
		in := prog.Instrs[l]
		var out []edgeKind
		// Direct: the defined variable's users, if the def may carry obj.
		def := in.Def
		if in.Op == ir.FunEntry {
			for _, p := range in.Uses {
				if holds(p, obj) {
					for _, u := range g.UsersOf(p) {
						out = append(out, edgeKind{to: u, note: "via " + prog.NameOf(p)})
					}
				}
			}
		} else if def != ir.None && holds(def, obj) {
			for _, u := range g.UsersOf(def) {
				out = append(out, edgeKind{to: u, note: "via " + prog.NameOf(def)})
			}
		}
		// Calls: actuals flow to formals of resolved callees.
		if in.Op == ir.Call {
			for _, callee := range g.Aux.CalleesOf(in) {
				args := in.CallArgs()
				for i, a := range args {
					if i >= len(callee.Params) {
						break
					}
					if holds(a, obj) {
						out = append(out, edgeKind{to: callee.EntryInstr.Label,
							note: "arg " + prog.NameOf(a)})
					}
				}
			}
		}
		// Returns: funexit flows to call sites' results.
		if in.Op == ir.FunExit && in.Parent.Ret != ir.None && holds(in.Parent.Ret, obj) {
			for _, f := range prog.Funcs {
				f.ForEachInstr(func(c *ir.Instr) {
					if c.Op != ir.Call || c.Def == ir.None {
						return
					}
					for _, callee := range g.Aux.CalleesOf(c) {
						if callee == in.Parent {
							out = append(out, edgeKind{to: c.Label, note: "return"})
						}
					}
				})
			}
		}
		// Indirect: memory flows for objects that may hold obj, in
		// ascending object order (slot order), so the search and the
		// witness it finds are deterministic.
		lo, hi := g.SlotRange(l)
		for s := lo; s < hi; s++ {
			succs := g.AppendGained(g.SlotSuccs(s), s)
			if o := prog.ObjID(g.SlotObj(s)); len(succs) > 0 && holds(o, obj) {
				for _, t := range succs {
					out = append(out, edgeKind{to: g.SlotNode(int(t)), note: "in " + prog.NameOf(o)})
				}
			}
		}
		return out
	}

	type visit struct {
		label uint32
		prev  int
		note  string
	}
	var visits []visit
	seen := map[uint32]bool{}
	for _, origin := range origins {
		if seen[origin.Label] {
			continue
		}
		seen[origin.Label] = true
		note := "allocation"
		if origin.Op == ir.Field {
			note = "field address"
		}
		visits = append(visits, visit{label: origin.Label, prev: -1, note: note})
	}
	for i := 0; i < len(visits); i++ {
		cur := visits[i]
		if cur.label == target {
			// Reconstruct.
			var steps []WitnessStep
			for j := i; j >= 0; j = visits[j].prev {
				steps = append(steps, WitnessStep{
					Label: visits[j].label,
					Instr: prog.Instrs[visits[j].label],
					Note:  visits[j].note,
				})
			}
			// Reverse into source order.
			for a, b := 0, len(steps)-1; a < b; a, b = a+1, b-1 {
				steps[a], steps[b] = steps[b], steps[a]
			}
			return &Witness{Var: v, Obj: obj, Steps: steps}
		}
		for _, e := range succsOf(cur.label) {
			if seen[e.to] {
				continue
			}
			seen[e.to] = true
			visits = append(visits, visit{label: e.to, prev: i, note: e.note})
		}
	}
	return nil
}
