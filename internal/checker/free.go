package checker

import (
	"fmt"

	"vsfs/internal/bitset"
	"vsfs/internal/ir"
)

// UseAfterFrees reports memory accesses that may touch freed storage.
// Two shapes are recognised, both per (instruction, object) so that the
// solver-comparison invariants in internal/oracle hold elementwise:
//
//   - a load or store through r where some pointee o of r has the FREED
//     token in its contents entering the instruction — the object was
//     freed on a path reaching the access;
//   - an instruction whose base pointer r may itself hold the FREED
//     token — r's value was loaded out of freed memory, so the access
//     dereferences a dangling value.
//
// Free-stores themselves are skipped for the first shape (freeing a
// freed object is DoubleFrees' report), but not the second: passing a
// value read from freed memory to free is still a use of that value.
// Programs with no free are skipped entirely.
func UseAfterFrees(prog *ir.Program, facts FlowFacts) []Finding {
	if prog.FreedObj() == ir.None {
		return nil
	}
	freed := uint32(prog.ObjNum(prog.FreedObj()))
	var out []Finding
	for _, f := range prog.Funcs {
		f.ForEachInstr(func(in *ir.Instr) {
			var what string
			switch in.Op {
			case ir.Load:
				what = "load"
			case ir.Store:
				what = "store"
			default:
				return
			}
			base := in.Uses[0]
			pts := facts.PointsTo(base)
			if pts.Has(freed) {
				out = append(out, Finding{
					Kind:  UseAfterFree,
					Func:  f.Name,
					Label: in.Label,
					Pos:   in.Pos,
					Message: fmt.Sprintf("%s through %s, whose value was loaded from freed memory",
						what, prog.NameOf(base)),
				})
			}
			if prog.IsFreeStore(in) {
				return
			}
			pts.ForEach(func(o uint32) {
				if o == freed {
					return
				}
				if facts.ConsumedSet(in.Label, ir.Obj(o)).Has(freed) {
					out = append(out, Finding{
						Kind:  UseAfterFree,
						Func:  f.Name,
						Label: in.Label,
						Pos:   in.Pos,
						Message: fmt.Sprintf("%s through %s may access %s after it was freed",
							what, prog.NameOf(base), prog.ObjValue(ir.Obj(o)).Name),
					})
				}
			})
		})
	}
	return out
}

// DoubleFrees reports free calls whose operand may point to an object
// that was already freed when the free executes: the FREED token is in
// the pointee's contents entering the free-store. Reported per
// (instruction, object).
func DoubleFrees(prog *ir.Program, facts FlowFacts) []Finding {
	if prog.FreedObj() == ir.None {
		return nil
	}
	freed := uint32(prog.ObjNum(prog.FreedObj()))
	var out []Finding
	for _, f := range prog.Funcs {
		f.ForEachInstr(func(in *ir.Instr) {
			if !prog.IsFreeStore(in) {
				return
			}
			base := in.Uses[0]
			facts.PointsTo(base).ForEach(func(o uint32) {
				if o == freed {
					return
				}
				if facts.ConsumedSet(in.Label, ir.Obj(o)).Has(freed) {
					out = append(out, Finding{
						Kind:  DoubleFree,
						Func:  f.Name,
						Label: in.Label,
						Pos:   in.Pos,
						Message: fmt.Sprintf("free of %s, which %s may already have freed",
							prog.NameOf(base), prog.ObjValue(ir.Obj(o)).Name),
					})
				}
			})
		})
	}
	return out
}

// MemoryLeaks reports heap allocations that are neither freed anywhere
// nor reachable from a root when the program exits. Roots are the
// contents of every global object plus the final points-to sets of
// main's top-level pointers (main's frame is the only one still live at
// exit); reachability closes the roots under object summaries, so
// anything a root may ever hold — directly or through a chain of heap
// links — counts as reachable. Both sides over-approximate, which keeps
// the checker conservative: a reported allocation has no may-alias path
// from any root and no free on any path.
//
// One finding is emitted per leaked heap allocation site, anchored at
// its Alloc instruction.
func MemoryLeaks(prog *ir.Program, facts FlowFacts) []Finding {
	// Collect the roots. reach and the bases below hold object numbers.
	reach := bitset.New()
	var work []uint32
	add := func(s *bitset.Sparse) {
		s.ForEach(func(o uint32) {
			if reach.Set(o) {
				work = append(work, o)
			}
		})
	}
	for o := range ir.Obj(prog.NumObjects()) {
		if prog.ObjValue(o).ObjKind == ir.GlobalObj {
			add(facts.ObjectSummary(o))
		}
	}
	if m := prog.FuncByName("main"); m != nil {
		m.ForEachInstr(func(in *ir.Instr) {
			if in.Def != ir.None {
				add(facts.PointsTo(in.Def))
			}
		})
		for _, p := range m.Params {
			add(facts.PointsTo(p))
		}
	}

	// Close under "may hold".
	for len(work) > 0 {
		o := work[len(work)-1]
		work = work[:len(work)-1]
		add(facts.ObjectSummary(ir.Obj(o)))
	}

	// An allocation is reachable (or freed) if its base object or any of
	// its field objects is: project everything onto allocation bases.
	// Value.Base is a value ID.
	base := func(o ir.Obj) uint32 { return uint32(prog.ObjNum(prog.ObjValue(o).Base)) }
	reachBase := bitset.New()
	reach.ForEach(func(o uint32) {
		reachBase.Set(base(ir.Obj(o)))
	})
	freedBase := bitset.New()
	if prog.FreedObj() != ir.None {
		freed := uint32(prog.ObjNum(prog.FreedObj()))
		for o := range ir.Obj(prog.NumObjects()) {
			if facts.ObjectSummary(o).Has(freed) {
				freedBase.Set(base(o))
			}
		}
	}

	var out []Finding
	for _, f := range prog.Funcs {
		f.ForEachInstr(func(in *ir.Instr) {
			if in.Op != ir.Alloc {
				return
			}
			v := prog.Value(in.Obj)
			if v.ObjKind != ir.HeapObj || v.IsField() {
				return
			}
			if o := uint32(prog.ObjNum(in.Obj)); reachBase.Has(o) || freedBase.Has(o) {
				return
			}
			out = append(out, Finding{
				Kind:  MemoryLeak,
				Func:  f.Name,
				Label: in.Label,
				Pos:   in.Pos,
				Message: fmt.Sprintf("heap allocation %s is never freed and unreachable at exit",
					prog.NameOf(in.Obj)),
			})
		})
	}
	return out
}
