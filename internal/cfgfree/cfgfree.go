// Package cfgfree implements the repository's third solver backend: an
// Andersen-style flow-sensitive points-to analysis that consumes the
// partial-SSA IR directly, with no control-flow graph traversal, no
// memory SSA, and no sparse value-flow graph — the formulation of "Flow
// Sensitivity without Control Flow Graph" (Zhang, Cheng, Lei; see
// PAPERS.md) reconstructed for this IR.
//
// The solver is the auxiliary analysis's inclusion-constraint engine
// (andersen.Solve: worklist, difference propagation, cycle collapsing,
// on-the-fly call-graph resolution) plus one flow-sensitive refinement,
// handed to the engine as its load rule: intra-block strong-update
// windows. For a memory access ℓ and an object o, if the nearest
// preceding store k in ℓ's own basic block strongly updates o — the
// exact predicate SFS uses: pts_aux(ptr_k) = {o} and o is a singleton
// per the shared classification (andersen.Result.Singletons) — and no
// call separates k from ℓ, then the contents of o visible at ℓ are
// exactly the values written by the stores in [k, ℓ) that may target o.
// Blocks are single-entry and execute in order, so the strong store k
// provably overwrites the one concrete cell o names before ℓ runs;
// everything the window omits cannot be o's content at ℓ. When no such
// anchor exists (or a call may have rewritten o in between), the access
// falls back to the global flow-insensitive set for o, which every
// store feeds and nothing ever kills.
//
// The windows are purely syntactic — computed once from the instruction
// sequence and the completed auxiliary result, before solving starts —
// so the constraint system stays monotone and the fixpoint is
// deterministic. A windowed load only adds copy edges, so nodes on one
// copy cycle are equal in the least fixpoint and the engine may merge
// them; window keys name objects by number, which merging leaves alone.
// By construction the solution is bracketed by the staged analyses:
// pts_SFS ⊆ pts_cfgfree ⊆ pts_aux pointwise (the window predicate is
// SFS's own kill predicate, and window contents are a subset of what
// Andersen pours into the global set). The oracle (internal/oracle)
// enforces both orderings, and Verify replays the solution against an
// independent chaotic-iteration evaluator.
package cfgfree

import (
	"context"

	"vsfs/internal/andersen"
	"vsfs/internal/bitset"
	"vsfs/internal/ir"
	"vsfs/internal/obs"
)

// Stats reports solver effort and window coverage.
type Stats struct {
	NodesProcessed int // worklist pops with a non-empty delta
	Propagations   int // set unions attempted
	Changed        int // unions that grew a set
	PtsSets        int // non-empty points-to sets at fixpoint
	PtsWords       int // words backing those sets
	WorklistHW     int // worklist high-water mark

	// WindowedAccesses counts (access, object) pairs that resolved to a
	// strong-update window instead of the global set; WindowStores is
	// the total number of store values feeding those windows.
	WindowedAccesses int
	WindowStores     int
}

// accessKey identifies one (memory access, object) pair. Keyed by
// instruction identity, not label: the memory-SSA pass renumbers labels
// when this backend runs as a degradation rung.
type accessKey struct {
	in *ir.Instr
	o  ir.Obj
}

// Result is a solved program. It is immutable once returned and safe
// for concurrent queries.
type Result struct {
	prog *ir.Program
	aux  *andersen.Result

	// sol is the engine's solution under the window load rule. Its
	// nodes are top-level pointers and objects' global contents, by
	// value ID; its sets hold object numbers.
	sol *andersen.Result

	// consumed holds the materialised window contents per windowed
	// (access, object) pair; accesses without an entry read the global
	// set for the object.
	consumed map[accessKey]*bitset.Sparse

	Stats Stats
}

// PointsTo returns pts_cf(v) for a top-level pointer v (or the global
// contents set when v is an object). The set is shared; do not mutate.
func (r *Result) PointsTo(v ir.ID) *bitset.Sparse { return r.sol.PointsTo(v) }

// ObjectSummary returns everything object o may ever hold: the global
// flow-insensitive set every store through a may-alias pointer feeds.
func (r *Result) ObjectSummary(o ir.Obj) *bitset.Sparse { return r.sol.ObjectSummary(o) }

// CalleesOf returns the functions a Call instruction may invoke,
// resolved on the fly from the flow-sensitive function-pointer sets,
// ordered by ir.FuncLess (the order SFS reports).
func (r *Result) CalleesOf(call *ir.Instr) []*ir.Function { return r.sol.CalleesOf(call) }

// instrAt returns the instruction labelled label, or nil for labels
// outside the program (including the reserved label 0).
func (r *Result) instrAt(label uint32) *ir.Instr {
	if label == 0 || int(label) >= len(r.prog.Instrs) {
		return nil
	}
	return r.prog.Instrs[label]
}

// ConsumedSet returns what object o may hold immediately before the
// instruction labelled label: the window contents when the access sits
// under a strong-update window for o, the global set otherwise.
func (r *Result) ConsumedSet(label uint32, o ir.Obj) *bitset.Sparse {
	if in := r.instrAt(label); in != nil {
		if set, ok := r.consumed[accessKey{in: in, o: o}]; ok {
			return set
		}
	}
	return r.ObjectSummary(o)
}

// YieldedSet returns what object o may hold immediately after the
// instruction labelled label: for a strong store to the singleton o,
// exactly the stored value's set; for a weak store, the consumed
// contents plus the stored values; for everything else, the consumed
// contents unchanged.
func (r *Result) YieldedSet(label uint32, o ir.Obj) *bitset.Sparse {
	in := r.instrAt(label)
	if in == nil || in.Op != ir.Store {
		return r.ConsumedSet(label, o)
	}
	p, q := in.Uses[0], in.Uses[1]
	if single, ok := r.aux.PointsTo(p).Single(); ok &&
		ir.Obj(single) == o && r.aux.Singletons().Has(uint32(o)) {
		return r.PointsTo(q)
	}
	out := r.ConsumedSet(label, o).Clone()
	if r.PointsTo(p).Has(uint32(o)) {
		out.UnionWith(r.PointsTo(q))
	}
	return out
}

// Solve runs the CFG-free analysis to fixpoint. The auxiliary result
// must come from the same program.
func Solve(prog *ir.Program, aux *andersen.Result) *Result {
	r, err := SolveContext(context.Background(), prog, aux)
	if err != nil {
		// Unreachable: a background context carries no deadline, budget
		// or fault plan, so solving cannot be interrupted.
		panic(err)
	}
	return r
}

// SolveContext is Solve with cooperative cancellation and resource
// governance: the worklist loop polls the context (and any guard budget
// or fault plan attached to it) under the phase name "cfgfree".
func SolveContext(ctx context.Context, prog *ir.Program, aux *andersen.Result) (*Result, error) {
	windows := computeWindows(prog, aux)
	// The engine names a load by the value it defines.
	loadOf := make(map[ir.ID]*ir.Instr)
	for key := range windows {
		if key.in.Op == ir.Load {
			loadOf[key.in.Def] = key.in
		}
	}
	window := func(def ir.ID, o ir.Obj) ([]ir.ID, bool) {
		vals, ok := windows[accessKey{in: loadOf[def], o: o}]
		return vals, ok
	}
	attr := obs.AttrFrom(ctx)
	sol, attempted, err := andersen.Solve(ctx, prog, "cfgfree", window, attr)
	if err != nil {
		return nil, err
	}
	r := &Result{prog: prog, aux: aux, sol: sol, Stats: Stats{
		NodesProcessed: sol.Stats.Pops,
		Propagations:   attempted,
		Changed:        sol.Stats.Propagations,
		WorklistHW:     sol.Stats.WorklistHW,
	}}
	r.finish(windows, attr)
	return r, nil
}

// computeWindows scans every basic block once and records, for each
// (memory access, object) pair, the values of the preceding same-block
// stores back to (and including) the nearest strong-update anchor for
// the object. Calls (and their CallRet companions, when the memory-SSA
// pass has inserted them) clobber the scan: a callee may rewrite o.
// MEMPHI markers are transparent — they sit at block entries and write
// nothing. No entry is recorded when no anchor exists.
func computeWindows(prog *ir.Program, aux *andersen.Result) map[accessKey][]ir.ID {
	singles := aux.Singletons()
	windows := make(map[accessKey][]ir.ID)
	for _, f := range prog.Funcs {
		for _, blk := range f.Blocks {
			// stores holds the clobber-free run of stores preceding the
			// instruction being visited, oldest first.
			var stores []*ir.Instr
			for _, in := range blk.Instrs {
				switch in.Op {
				case ir.Call, ir.CallRet:
					stores = stores[:0]
				case ir.Load, ir.Store:
					base := in.Uses[0]
					aux.PointsTo(base).ForEach(func(o32 uint32) {
						o := ir.Obj(o32)
						var vals []ir.ID
						for i := len(stores) - 1; i >= 0; i-- {
							st := stores[i]
							spts := aux.PointsTo(st.Uses[0])
							if !spts.Has(o32) {
								continue
							}
							vals = append(vals, st.Uses[1])
							if single, ok := spts.Single(); ok &&
								single == o32 && singles.Has(o32) {
								windows[accessKey{in: in, o: o}] = vals
								return
							}
						}
					})
					if in.Op == ir.Store {
						stores = append(stores, in)
					}
				}
			}
		}
	}
	return windows
}

// finish counts the fixpoint's sets, once per merged class, charging
// each to its first member; materialises the window contents so
// ConsumedSet is an O(1) lookup; and sorts every call's callees. sol is
// this package's own, so its callee lists are sorted in place.
func (r *Result) finish(windows map[accessKey][]ir.ID, attr *obs.ObjectAttr) {
	seen := make(map[ir.ID]bool)
	for v := ir.ID(1); int(v) < r.prog.NumValues(); v++ {
		set, rep := r.PointsTo(v), r.sol.Rep(v)
		if set.IsEmpty() || seen[rep] {
			continue
		}
		seen[rep] = true
		r.Stats.PtsSets++
		r.Stats.PtsWords += set.Words()
		owner := uint32(0) // the unattributed bucket, for a top-level pointer
		if r.prog.IsObject(v) {
			owner = uint32(v)
		}
		attr.Set(owner)
	}
	r.consumed = make(map[accessKey]*bitset.Sparse, len(windows))
	for key, vals := range windows {
		set := bitset.New()
		for _, val := range vals {
			set.UnionWith(r.PointsTo(val))
		}
		r.consumed[key] = set
		r.Stats.WindowedAccesses++
		r.Stats.WindowStores += len(vals)
	}
	for _, f := range r.prog.Funcs {
		f.ForEachInstr(func(in *ir.Instr) {
			if in.Op == ir.Call {
				ir.SortFuncs(r.CalleesOf(in))
			}
		})
	}
}
