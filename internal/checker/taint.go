package checker

import (
	"fmt"

	"vsfs/internal/bitset"
	"vsfs/internal/ir"
)

// LeakSource identifies the objects considered sensitive: every object
// allocated inside the named function (heap or stack).
type LeakSource struct {
	Func string
}

// LeakSink identifies where sensitive objects must not flow: pointer
// arguments of calls to the named function.
type LeakSink struct {
	Func string
}

// LeakSanitizer identifies calls that clear sensitivity: every object
// reachable from an argument of a call to the named function (through
// the points-to closure) is no longer considered sensitive.
type LeakSanitizer struct {
	Func string
}

// Leaks reports calls to the sink function whose arguments may reach a
// sensitive object, directly or through any chain of heap/field loads
// (the points-to closure). This is the classic alias-based
// taint/leak client built on flow-sensitive facts: a secret wrapped in
// a struct and passed through the heap is still found, while pointers
// that provably never alias the secret are not.
//
// Optional sanitizers harden the client: any object reachable from an
// argument of a call to a sanitizer function is declassified — removed
// from the sensitive set everywhere. This is a may-sanitize
// interpretation (one possible sanitizing call clears the object for
// the whole program), which is the usual choice for suppressing noise
// but is deliberately NOT monotone in analysis precision: a less
// precise analysis may sanitize more and so report fewer leaks. The
// solver-comparison oracle therefore excludes sanitized taint from its
// subset invariants; see internal/oracle.
func Leaks(prog *ir.Program, res PointsTo, sums ObjectSummaries, source LeakSource, sink LeakSink, sanitizers ...LeakSanitizer) []Finding {
	srcFn := prog.FuncByName(source.Func)
	sinkFn := prog.FuncByName(sink.Func)
	if srcFn == nil || sinkFn == nil {
		return nil
	}

	// Sensitive objects: allocation sites inside the source function.
	sensitive := bitset.New()
	srcFn.ForEachInstr(func(in *ir.Instr) {
		if in.Op == ir.Alloc {
			sensitive.Set(uint32(prog.ObjNum(in.Obj)))
		}
	})
	for _, san := range sanitizers {
		sensitive.DifferenceWith(sanitizedObjects(prog, res, sums, san))
	}
	if sensitive.IsEmpty() {
		return nil
	}

	var out []Finding
	for _, f := range prog.Funcs {
		f.ForEachInstr(func(in *ir.Instr) {
			if in.Op != ir.Call {
				return
			}
			if in.Callee != sinkFn && !callsIndirectly(prog, res, in, sinkFn) {
				return
			}
			for i, arg := range in.CallArgs() {
				if reaches(res.PointsTo(arg), sensitive, sums) {
					out = append(out, Finding{
						Kind:  Leak,
						Func:  f.Name,
						Label: in.Label,
						Pos:   in.Pos,
						Message: fmt.Sprintf("argument %d of %s may reach an object allocated in %s",
							i, sink.Func, source.Func),
					})
				}
			}
		})
	}
	return out
}

// Leak marks a sensitive-object flow into a sink.
const Leak Kind = "leak"

// sanitizedObjects collects every object in the points-to closure of an
// argument of any call (direct or indirect) to the sanitizer function.
func sanitizedObjects(prog *ir.Program, res PointsTo, sums ObjectSummaries, san LeakSanitizer) *bitset.Sparse {
	out := bitset.New()
	fn := prog.FuncByName(san.Func)
	if fn == nil {
		return out
	}
	for _, f := range prog.Funcs {
		f.ForEachInstr(func(in *ir.Instr) {
			if in.Op != ir.Call {
				return
			}
			if in.Callee != fn && !callsIndirectly(prog, res, in, fn) {
				return
			}
			for _, arg := range in.CallArgs() {
				closure(res.PointsTo(arg), sums, out)
			}
		})
	}
	return out
}

// closure adds start's objects and everything transitively held by them
// into dst.
func closure(start *bitset.Sparse, sums ObjectSummaries, dst *bitset.Sparse) {
	var work []uint32
	start.ForEach(func(o uint32) {
		if dst.Set(o) {
			work = append(work, o)
		}
	})
	for len(work) > 0 {
		o := work[len(work)-1]
		work = work[:len(work)-1]
		sums.ObjectSummary(ir.Obj(o)).ForEach(func(h uint32) {
			if dst.Set(h) {
				work = append(work, h)
			}
		})
	}
}

// callsIndirectly reports whether an indirect call may target fn.
func callsIndirectly(prog *ir.Program, res PointsTo, call *ir.Instr, fn *ir.Function) bool {
	if !call.IsIndirectCall() {
		return false
	}
	found := false
	res.PointsTo(call.CalleePtr()).ForEach(func(o uint32) {
		if v := prog.ObjValue(ir.Obj(o)); v.ObjKind == ir.FuncObj && v.Func == fn {
			found = true
		}
	})
	return found
}

// reaches reports whether the points-to closure of start intersects the
// target set: start's objects, everything they may hold, and so on.
func reaches(start *bitset.Sparse, targets *bitset.Sparse, sums ObjectSummaries) bool {
	if start.Intersects(targets) {
		return true
	}
	seen := start.Clone()
	work := start.Slice()
	for len(work) > 0 {
		o := work[len(work)-1]
		work = work[:len(work)-1]
		held := sums.ObjectSummary(ir.Obj(o))
		if held.Intersects(targets) {
			return true
		}
		held.ForEach(func(h uint32) {
			if seen.Set(h) {
				work = append(work, h)
			}
		})
	}
	return false
}
