package cfgfree

import (
	"fmt"

	"vsfs/internal/andersen"
	"vsfs/internal/bitset"
	"vsfs/internal/ir"
)

// verifyMaxPasses bounds the reference evaluator's chaotic iteration; a
// monotone system over a finite lattice converges in far fewer passes,
// so hitting the cap means the evaluator itself is broken.
const verifyMaxPasses = 10000

// Verify replays the constraint system with an independent evaluator
// and reports the first divergence from res, or nil when the solved
// result is exactly reproducible. The evaluator shares only the window
// table (the specification of which accesses are flow-sensitive); the
// fixpoint engine is deliberately naive — chaotic iteration over the
// instruction list with direct semantics, no worklist, no difference
// propagation, no copy edges — so a bug in the solver's incremental
// machinery cannot hide in a shared code path. The oracle runs this as
// the cfgfree-replay invariant.
func Verify(prog *ir.Program, aux *andersen.Result, res *Result) error {
	windows := computeWindows(prog, aux)

	pts := make([]*bitset.Sparse, prog.NumValues())
	at := func(id ir.ID) *bitset.Sparse {
		//vsfs:lint-ignore guardtick oracle-only naive replay runs outside guard budgets by design; growth is bounded by the ID space
		for int(id) >= len(pts) {
			pts = append(pts, nil)
		}
		if pts[id] == nil {
			pts[id] = bitset.New()
		}
		return pts[id]
	}
	callees := make(map[*ir.Instr]map[*ir.Function]bool)
	wire := func(call *ir.Instr, callee *ir.Function) bool {
		if callees[call] == nil {
			callees[call] = make(map[*ir.Function]bool)
		}
		callees[call][callee] = true
		changed := false
		args := call.CallArgs()
		for i, arg := range args {
			if i >= len(callee.Params) {
				break
			}
			if at(callee.Params[i]).UnionWith(at(arg)) {
				changed = true
			}
		}
		if call.Def != ir.None && callee.Ret != ir.None {
			if at(call.Def).UnionWith(at(callee.Ret)) {
				changed = true
			}
		}
		return changed
	}

	// objsOf snapshots a base pointer's objects so applying semantics
	// (which may grow the value space via FieldObj or union into the
	// iterated set) never mutates a set mid-iteration. Sets hold object
	// numbers; an object's contents live under its value ID.
	objsOf := func(base ir.ID) []ir.Obj {
		var out []ir.Obj
		at(base).ForEach(func(o uint32) { out = append(out, ir.Obj(o)) })
		return out
	}

	pass := 0
	for changed := true; changed; pass++ {
		if pass >= verifyMaxPasses {
			return fmt.Errorf("cfgfree verify: no fixpoint after %d passes", verifyMaxPasses)
		}
		changed = false
		for _, f := range prog.Funcs {
			f.ForEachInstr(func(in *ir.Instr) {
				switch in.Op {
				case ir.Alloc:
					if at(in.Def).Set(uint32(prog.ObjNum(in.Obj))) {
						changed = true
					}
				case ir.Copy:
					if at(in.Def).UnionWith(at(in.Uses[0])) {
						changed = true
					}
				case ir.Phi:
					for _, u := range in.Uses {
						if at(in.Def).UnionWith(at(u)) {
							changed = true
						}
					}
				case ir.Field:
					for _, o := range objsOf(in.Uses[0]) {
						if prog.ObjValue(o).ObjKind == ir.FuncObj {
							continue
						}
						fo := prog.FieldObj(prog.ObjID(o), in.Off)
						if at(in.Def).Set(uint32(prog.ObjNum(fo))) {
							changed = true
						}
					}
				case ir.Load:
					for _, o := range objsOf(in.Uses[0]) {
						if vals, ok := windows[accessKey{in: in, o: o}]; ok {
							for _, val := range vals {
								if at(in.Def).UnionWith(at(val)) {
									changed = true
								}
							}
							continue
						}
						if at(in.Def).UnionWith(at(prog.ObjID(o))) {
							changed = true
						}
					}
				case ir.Store:
					for _, o := range objsOf(in.Uses[0]) {
						if at(prog.ObjID(o)).UnionWith(at(in.Uses[1])) {
							changed = true
						}
					}
				case ir.Call:
					if in.Callee != nil {
						if wire(in, in.Callee) {
							changed = true
						}
						break
					}
					for _, o := range objsOf(in.CalleePtr()) {
						v := prog.ObjValue(o)
						if v.ObjKind != ir.FuncObj {
							continue
						}
						if wire(in, v.Func) {
							changed = true
						}
					}
				}
			})
		}
	}

	for id := ir.ID(1); int(id) < prog.NumValues(); id++ {
		want := at(id)
		got := res.PointsTo(id)
		if !want.Equal(got) {
			return fmt.Errorf("cfgfree verify: pts(%s) = %s, reference says %s",
				prog.NameOf(id), got, want)
		}
	}
	for call, want := range callees {
		got := res.CalleesOf(call)
		if len(got) != len(want) {
			return fmt.Errorf("cfgfree verify: call @%d resolves %d callees, reference says %d",
				call.Label, len(got), len(want))
		}
		for _, fn := range got {
			if !want[fn] {
				return fmt.Errorf("cfgfree verify: call @%d resolves %s, reference does not",
					call.Label, fn.Name)
			}
		}
	}
	var extra error
	for _, f := range prog.Funcs {
		f.ForEachInstr(func(in *ir.Instr) {
			// The reference map has no entry for never-resolved calls,
			// so the loop above cannot catch spurious solver callees.
			if extra == nil && in.Op == ir.Call && callees[in] == nil && len(res.CalleesOf(in)) != 0 {
				extra = fmt.Errorf("cfgfree verify: call @%d resolves callees the reference does not", in.Label)
			}
		})
	}
	return extra
}
