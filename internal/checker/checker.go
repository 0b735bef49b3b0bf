// Package checker hosts the memory-safety and information-flow clients
// built on the pointer-analysis results:
//
//   - null-deref: a load or store whose base pointer has an empty
//     points-to set at that point (null or uninitialised);
//   - dangling-return: a function may return a pointer into its own
//     stack frame;
//   - stack-escape: the address of a local escapes into a global or
//     heap object that outlives the frame;
//   - use-after-free: a load or store may access an object that was
//     freed on some path reaching it, or dereferences a pointer value
//     that was itself loaded from freed memory;
//   - double-free: a free whose operand may point to an
//     already-freed object;
//   - memory-leak: a heap allocation that is neither freed nor
//     reachable from any root (global contents or main's pointers) when
//     the program exits;
//   - leak (taint): an object allocated in a source function reaches an
//     argument of a sink call, with optional sanitizer functions that
//     clear sensitivity.
//
// Deallocation is modelled by lowering free(p) to a store of the
// distinguished FREED token object through p (ir.Program.FreedObj).
// "Object o is freed before instruction ℓ" is then exactly "the FREED
// token is in o's contents entering ℓ", a question every flow-sensitive
// solver already answers; strong updates on singleton pointees make the
// answer per-path precise.
//
// The checkers consume any solver's results through the PointsTo /
// ObjectSummaries / FlowFacts interfaces, which every backend's Result
// implements directly, so the same client runs on Andersen's, SFS,
// VSFS or CFG-free facts — with flow-sensitive facts giving strictly
// more precise answers. See internal/oracle for the formal
// relationships between the three solvers' findings.
package checker

import (
	"fmt"

	"vsfs/internal/bitset"
	"vsfs/internal/ir"
)

// PointsTo abstracts a solved analysis. Like every object set the
// checkers read, a points-to set holds object numbers (ir.Obj).
type PointsTo interface {
	PointsTo(v ir.ID) *bitset.Sparse
}

// Kind classifies a finding.
type Kind string

const (
	// NullDeref: a load or store whose base pointer has an empty
	// points-to set at that point — null or uninitialised.
	NullDeref Kind = "null-deref"
	// DanglingReturn: a function returns a pointer that may reference
	// its own stack frame.
	DanglingReturn Kind = "dangling-return"
	// StackEscape: a store publishes the address of a local variable
	// into a global or heap object that outlives the frame.
	StackEscape Kind = "stack-escape"
	// UseAfterFree: a load or store may access an object already freed
	// at that point, or dereferences a pointer loaded from freed memory.
	UseAfterFree Kind = "use-after-free"
	// DoubleFree: a free whose operand may point to an already-freed
	// object.
	DoubleFree Kind = "double-free"
	// MemoryLeak: a heap allocation neither freed nor reachable from
	// any root when the program exits.
	MemoryLeak Kind = "memory-leak"
)

// Kinds lists every finding kind the package can produce, in reporting
// order. Diagnostics configuration (internal/diag) indexes by these.
func Kinds() []Kind {
	return []Kind{NullDeref, DanglingReturn, StackEscape, UseAfterFree, DoubleFree, MemoryLeak, Leak}
}

// Finding is one reported issue.
type Finding struct {
	Kind    Kind
	Func    string
	Label   uint32 // instruction label
	Pos     ir.Pos // source position, when the IR carries provenance
	Message string
}

func (f Finding) String() string {
	if f.Pos.IsKnown() {
		return fmt.Sprintf("[%s] %s (%s): %s", f.Kind, f.Func, f.Pos, f.Message)
	}
	return fmt.Sprintf("[%s] %s (ℓ%d): %s", f.Kind, f.Func, f.Label, f.Message)
}

// NullDerefs reports loads and stores whose base pointer may be null or
// uninitialised under the given analysis results.
func NullDerefs(prog *ir.Program, res PointsTo) []Finding {
	var out []Finding
	for _, f := range prog.Funcs {
		f.ForEachInstr(func(in *ir.Instr) {
			var base ir.ID
			var what string
			switch in.Op {
			case ir.Load:
				base, what = in.Uses[0], "load"
			case ir.Store:
				base, what = in.Uses[0], "store"
			default:
				return
			}
			if res.PointsTo(base).IsEmpty() {
				out = append(out, Finding{
					Kind:  NullDeref,
					Func:  f.Name,
					Label: in.Label,
					Pos:   in.Pos,
					Message: fmt.Sprintf("%s through %s, which points to nothing here",
						what, prog.NameOf(base)),
				})
			}
		})
	}
	return out
}

// DanglingReturns reports functions that may return a pointer into
// their own stack frame.
func DanglingReturns(prog *ir.Program, res PointsTo) []Finding {
	var out []Finding
	for _, f := range prog.Funcs {
		if f.Ret == ir.None {
			continue
		}
		res.PointsTo(f.Ret).ForEach(func(o uint32) {
			v := prog.ObjValue(ir.Obj(o))
			if v.ObjKind == ir.StackObj && v.DefFunc == f {
				out = append(out, Finding{
					Kind:  DanglingReturn,
					Func:  f.Name,
					Label: f.ExitInstr.Label,
					Pos:   f.ExitInstr.Pos,
					Message: fmt.Sprintf("returns a pointer to its own local %s",
						v.Name),
				})
			}
		})
	}
	return out
}

// ObjectSummaries abstracts per-object "may ever hold" queries, provided
// by the flow-sensitive solvers and by Andersen's PointsTo directly.
type ObjectSummaries interface {
	ObjectSummary(o ir.Obj) *bitset.Sparse
}

// FlowFacts is what the deallocation checkers need: top-level points-to
// sets, per-object summaries, and the flow-sensitive contents of an
// object at a program point. ConsumedSet(ℓ, o) is what o may hold
// immediately before instruction ℓ executes — SFS answers it with
// IN[ℓ](o), VSFS with the points-to set of o's consume version at ℓ,
// the CFG-free backend with its strong-update-window contents, and
// Andersen's over-approximates it with the object summary. It is
// meaningful whenever the memory-SSA pass placed a μ or χ for o at ℓ,
// which holds for every o in the points-to set of ℓ's base pointer;
// callers must not rely on it elsewhere.
//
// Every backend's *Result (andersen, sfs, core, cfgfree) satisfies
// FlowFacts directly, under the same method names, so no caller needs
// an adapter to hand a solved program to the checkers.
type FlowFacts interface {
	PointsTo
	ObjectSummaries
	ConsumedSet(label uint32, o ir.Obj) *bitset.Sparse
}

// MemorySafety runs the memory-safety suite over one backend's facts —
// null-deref, dangling-return, stack-escape, use-after-free,
// double-free, memory-leak, in that order — and returns the findings
// concatenated in that order. The taint checker is not part of it: it
// needs a source and a sink (see Leaks).
func MemorySafety(prog *ir.Program, facts FlowFacts) []Finding {
	var all []Finding
	all = append(all, NullDerefs(prog, facts)...)
	all = append(all, DanglingReturns(prog, facts)...)
	all = append(all, StackEscapes(prog, facts)...)
	all = append(all, UseAfterFrees(prog, facts)...)
	all = append(all, DoubleFrees(prog, facts)...)
	all = append(all, MemoryLeaks(prog, facts)...)
	return all
}

// StackEscapes reports stores that publish a local's address into
// storage that outlives the frame: a global or heap object whose summary
// contains a stack object of another frame's future dead local.
func StackEscapes(prog *ir.Program, sums ObjectSummaries) []Finding {
	var out []Finding
	for h := range ir.Obj(prog.NumObjects()) {
		holder := prog.ObjValue(h)
		if holder.ObjKind != ir.GlobalObj && holder.ObjKind != ir.HeapObj {
			continue
		}
		sums.ObjectSummary(h).ForEach(func(o uint32) {
			pointee := prog.ObjValue(ir.Obj(o))
			if pointee.ObjKind != ir.StackObj || pointee.DefFunc == nil {
				return
			}
			out = append(out, Finding{
				Kind:  StackEscape,
				Func:  pointee.DefFunc.Name,
				Label: pointee.DefFunc.ExitInstr.Label,
				Pos:   pointee.DefFunc.ExitInstr.Pos,
				Message: fmt.Sprintf("address of local %s escapes into %s %s",
					pointee.Name, holder.ObjKind, holder.Name),
			})
		})
	}
	return out
}
