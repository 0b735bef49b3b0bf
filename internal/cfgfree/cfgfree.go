// Package cfgfree implements the repository's third solver backend: an
// Andersen-style flow-sensitive points-to analysis that consumes the
// partial-SSA IR directly, with no control-flow graph traversal, no
// memory SSA, and no sparse value-flow graph — the formulation of "Flow
// Sensitivity without Control Flow Graph" (Zhang, Cheng, Lei; see
// PAPERS.md) reconstructed for this IR.
//
// The solver is the auxiliary analysis's inclusion-constraint engine
// (worklist, difference propagation, on-the-fly call-graph resolution)
// plus one flow-sensitive refinement: intra-block strong-update
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
// deterministic. By construction the solution is bracketed by the
// staged analyses: pts_SFS ⊆ pts_cfgfree ⊆ pts_aux pointwise (the
// window predicate is SFS's own kill predicate, and window contents are
// a subset of what Andersen pours into the global set). The oracle
// (internal/oracle) enforces both orderings, and Verify replays the
// solution against an independent chaotic-iteration evaluator.
package cfgfree

import (
	"context"

	"vsfs/internal/andersen"
	"vsfs/internal/bitset"
	"vsfs/internal/guard"
	"vsfs/internal/ir"
	"vsfs/internal/obs"
)

// cancelCheckInterval is how many worklist iterations pass between
// governance polls (guard.Tick) in the solver loop.
const cancelCheckInterval = 1024

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

	// pts[n] is the set of constraint node n: a top-level pointer or an
	// object's global contents, by value ID. Sets hold object numbers.
	pts []*bitset.Sparse

	// consumed holds the materialised window contents per windowed
	// (access, object) pair; accesses without an entry read the global
	// set for the object.
	consumed map[accessKey]*bitset.Sparse

	callTargets map[*ir.Instr][]*ir.Function

	Stats Stats
}

var emptySet = bitset.New()

// PointsTo returns pts_cf(v) for a top-level pointer v (or the global
// contents set when v is an object). The set is shared; do not mutate.
func (r *Result) PointsTo(v ir.ID) *bitset.Sparse {
	if int(v) < len(r.pts) && r.pts[v] != nil {
		return r.pts[v]
	}
	return emptySet
}

// ObjectSummary returns everything object o may ever hold: the global
// flow-insensitive set every store through a may-alias pointer feeds.
func (r *Result) ObjectSummary(o ir.Obj) *bitset.Sparse { return r.PointsTo(r.prog.ObjID(o)) }

// CalleesOf returns the functions a Call instruction may invoke,
// resolved on the fly from the flow-sensitive function-pointer sets,
// ordered by name then entry label (the same order SFS reports).
func (r *Result) CalleesOf(call *ir.Instr) []*ir.Function {
	return r.callTargets[call]
}

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
	s := &solver{
		prog:        prog,
		aux:         aux,
		ctx:         ctx,
		attr:        obs.AttrFrom(ctx),
		windows:     computeWindows(prog, aux),
		resolved:    make(map[callTarget]bool),
		callTargets: make(map[*ir.Instr][]*ir.Function),
	}
	s.ensure(uint32(prog.NumValues()))
	s.generate()
	if err := s.solve(); err != nil {
		return nil, err
	}
	return s.finish(), nil
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

// worklist is a FIFO queue with a membership bitset to avoid duplicates.
type worklist struct {
	queue []uint32
	in    bitset.Sparse
	hw    int
}

func (w *worklist) push(n uint32) {
	if w.in.Set(n) {
		w.queue = append(w.queue, n)
		if len(w.queue) > w.hw {
			w.hw = len(w.queue)
		}
	}
}

func (w *worklist) pop() (uint32, bool) {
	if len(w.queue) == 0 {
		return 0, false
	}
	n := w.queue[0]
	w.queue = w.queue[1:]
	w.in.Clear(n)
	return n, true
}

type fieldUse struct {
	def ir.ID
	off int
}

type callTarget struct {
	call *ir.Instr
	fn   *ir.Function
}

// solver is the mutable analysis state. Unlike the auxiliary solver it
// performs no cycle collapsing: objects must keep their identity so the
// window table stays addressable, and the corpus scale never needs it.
// Constraint nodes are value IDs, as in the auxiliary solver.
type solver struct {
	prog *ir.Program
	aux  *andersen.Result
	ctx  context.Context

	pts       []*bitset.Sparse
	processed []*bitset.Sparse
	succs     []*bitset.Sparse

	loadsAt  [][]*ir.Instr // base pointer → loads through it
	storesAt [][]ir.ID     // base pointer → stored values
	fieldsAt [][]fieldUse  // base pointer → (def, off) of field addresses
	icallsAt [][]*ir.Instr // function pointer → indirect calls through it

	windows map[accessKey][]ir.ID

	resolved    map[callTarget]bool
	callTargets map[*ir.Instr][]*ir.Function

	work  worklist
	stats Stats

	// attr charges solver work to owning objects (nil = off, no-op
	// receiver). This backend's nodes are values and objects in one ID
	// space, so the owner of a pop or union is the node itself when it
	// is an object, the unattributed bucket 0 otherwise; per-object
	// sums stay conserved against the stats gauges.
	attr *obs.ObjectAttr
}

// owner maps a constraint node to the object charged for its work.
func (s *solver) owner(n uint32) uint32 {
	if int(n) < s.prog.NumValues() && s.prog.IsObject(ir.ID(n)) {
		return n
	}
	return 0
}

func (s *solver) ensure(id uint32) {
	//vsfs:lint-ignore guardtick growth is bounded by the node-ID space; the pop that created the id was charged at the run checkpoint
	for uint32(len(s.pts)) <= id {
		s.pts = append(s.pts, nil)
		s.processed = append(s.processed, nil)
		s.succs = append(s.succs, nil)
		s.loadsAt = append(s.loadsAt, nil)
		s.storesAt = append(s.storesAt, nil)
		s.fieldsAt = append(s.fieldsAt, nil)
		s.icallsAt = append(s.icallsAt, nil)
	}
}

func (s *solver) ptsOf(n uint32) *bitset.Sparse {
	if s.pts[n] == nil {
		s.pts[n] = bitset.New()
	}
	return s.pts[n]
}

func (s *solver) addPts(n uint32, obj ir.Obj) {
	if s.ptsOf(n).Set(uint32(obj)) {
		s.work.push(n)
	}
}

// addCopy inserts the copy edge src→dst (pts(dst) ⊇ pts(src)), eagerly
// propagating the current set.
func (s *solver) addCopy(dst, src ir.ID) {
	d, c := uint32(dst), uint32(src)
	if d == c {
		return
	}
	if s.succs[c] == nil {
		s.succs[c] = bitset.New()
	}
	if !s.succs[c].Set(d) {
		return
	}
	if s.pts[c] != nil && !s.pts[c].IsEmpty() {
		s.stats.Propagations++
		s.attr.Prop(s.owner(d))
		if s.ptsOf(d).UnionWith(s.pts[c]) {
			s.stats.Changed++
			s.work.push(d)
		}
	}
}

// generate installs the base and complex constraints for every
// instruction. MEMPHI and CallRet markers (present when the program has
// been through the memory-SSA pass) generate nothing: their clobber
// role is already folded into the window table.
func (s *solver) generate() {
	for _, f := range s.prog.Funcs {
		f.ForEachInstr(func(in *ir.Instr) {
			switch in.Op {
			case ir.Alloc:
				s.addPts(uint32(in.Def), s.prog.ObjNum(in.Obj))
			case ir.Copy:
				s.addCopy(in.Def, in.Uses[0])
			case ir.Phi:
				for _, u := range in.Uses {
					s.addCopy(in.Def, u)
				}
			case ir.Load:
				q := uint32(in.Uses[0])
				s.loadsAt[q] = append(s.loadsAt[q], in)
				s.reprocess(q)
			case ir.Store:
				p := uint32(in.Uses[0])
				s.storesAt[p] = append(s.storesAt[p], in.Uses[1])
				s.reprocess(p)
			case ir.Field:
				q := uint32(in.Uses[0])
				s.fieldsAt[q] = append(s.fieldsAt[q], fieldUse{def: in.Def, off: in.Off})
				s.reprocess(q)
			case ir.Call:
				if in.Callee != nil {
					s.wireCall(in, in.Callee)
				} else {
					fp := uint32(in.CalleePtr())
					s.icallsAt[fp] = append(s.icallsAt[fp], in)
					s.reprocess(fp)
				}
			}
		})
	}
}

// reprocess forces the complex constraints at n to see the whole
// current points-to set again.
func (s *solver) reprocess(n uint32) {
	if s.processed[n] != nil && !s.processed[n].IsEmpty() {
		s.processed[n] = nil
	}
	if s.pts[n] != nil && !s.pts[n].IsEmpty() {
		s.work.push(n)
	}
}

// wireCall connects actuals to formals and the return value for one
// (call, callee) pair, once.
func (s *solver) wireCall(call *ir.Instr, callee *ir.Function) {
	key := callTarget{call: call, fn: callee}
	if s.resolved[key] {
		return
	}
	s.resolved[key] = true
	s.callTargets[call] = append(s.callTargets[call], callee)
	args := call.CallArgs()
	for i, arg := range args {
		if i >= len(callee.Params) {
			break // excess actuals are dropped, as in K&R varargs
		}
		s.addCopy(callee.Params[i], arg)
	}
	if call.Def != ir.None && callee.Ret != ir.None {
		s.addCopy(call.Def, callee.Ret)
	}
}

// solve runs the worklist to fixpoint with difference propagation.
func (s *solver) solve() error {
	for steps := 0; ; steps++ {
		if steps%cancelCheckInterval == 0 {
			if err := guard.Tick(s.ctx, "cfgfree", cancelCheckInterval); err != nil {
				return err
			}
		}
		n, ok := s.work.pop()
		if !ok {
			break
		}
		if s.pts[n] == nil {
			continue
		}
		delta := s.pts[n].Clone()
		if s.processed[n] != nil {
			delta.DifferenceWith(s.processed[n])
		}
		if delta.IsEmpty() {
			continue
		}
		if s.processed[n] == nil {
			s.processed[n] = bitset.New()
		}
		s.processed[n].UnionWith(delta)
		s.stats.NodesProcessed++
		s.attr.Pop(s.owner(n))

		s.applyComplex(n, delta)

		if s.succs[n] != nil {
			s.succs[n].ForEach(func(d uint32) {
				if d == n {
					return
				}
				s.stats.Propagations++
				s.attr.Prop(s.owner(d))
				if s.ptsOf(d).UnionWith(delta) {
					s.stats.Changed++
					s.work.push(d)
				}
			})
		}
	}
	return nil
}

// applyComplex handles loads, stores, field addresses and indirect
// calls whose base pointer gained the objects in delta. Loads are where
// flow-sensitivity enters: an access under a strong-update window for o
// copies from the window's store values instead of the global set.
func (s *solver) applyComplex(n uint32, delta *bitset.Sparse) {
	prog := s.prog
	for _, ld := range s.loadsAt[n] {
		delta.ForEach(func(o uint32) {
			if vals, ok := s.windows[accessKey{in: ld, o: ir.Obj(o)}]; ok {
				for _, val := range vals {
					s.addCopy(ld.Def, val) // pts(def) ⊇ pts(val_window)
				}
				return
			}
			s.addCopy(ld.Def, prog.ObjID(ir.Obj(o))) // pts(def) ⊇ pts_cf(o)
		})
	}
	for _, src := range s.storesAt[n] {
		delta.ForEach(func(o uint32) {
			// The global set is the fallback for every window-less
			// access anywhere in the program; it is never killed.
			s.addCopy(prog.ObjID(ir.Obj(o)), src) // pts_cf(o) ⊇ pts(src)
		})
	}
	for _, fu := range s.fieldsAt[n] {
		delta.ForEach(func(o uint32) {
			if prog.ObjValue(ir.Obj(o)).ObjKind == ir.FuncObj {
				return // no fields of functions
			}
			fo := prog.FieldObj(prog.ObjID(ir.Obj(o)), fu.off)
			s.ensure(uint32(prog.NumValues()) - 1)
			s.addPts(uint32(fu.def), prog.ObjNum(fo))
		})
	}
	if calls := s.icallsAt[n]; len(calls) > 0 {
		delta.ForEach(func(o uint32) {
			v := prog.ObjValue(ir.Obj(o))
			if v.ObjKind != ir.FuncObj {
				return // calling through a non-function pointer: no-op
			}
			for _, call := range calls {
				s.wireCall(call, v.Func)
			}
		})
	}
}

// funcLess orders callees by name, breaking ties by entry label — the
// order SFS reports, so cross-backend callee comparisons are stable.
func funcLess(a, b *ir.Function) bool {
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	return a.EntryInstr.Label < b.EntryInstr.Label
}

func (s *solver) finish() *Result {
	s.stats.WorklistHW = s.work.hw
	for n, set := range s.pts {
		if set != nil && !set.IsEmpty() {
			s.stats.PtsSets++
			s.stats.PtsWords += set.Words()
			s.attr.Set(s.owner(uint32(n)))
		}
	}
	// Materialise the window contents so ConsumedSet is an O(1) lookup
	// on an immutable Result.
	consumed := make(map[accessKey]*bitset.Sparse, len(s.windows))
	for key, vals := range s.windows {
		set := bitset.New()
		for _, val := range vals {
			if int(val) < len(s.pts) && s.pts[val] != nil {
				set.UnionWith(s.pts[val])
			}
		}
		consumed[key] = set
		s.stats.WindowedAccesses++
		s.stats.WindowStores += len(vals)
	}
	for _, callees := range s.callTargets {
		for i := 1; i < len(callees); i++ {
			for j := i; j > 0 && funcLess(callees[j], callees[j-1]); j-- {
				callees[j], callees[j-1] = callees[j-1], callees[j]
			}
		}
	}
	return &Result{
		prog:        s.prog,
		aux:         s.aux,
		pts:         s.pts,
		consumed:    consumed,
		callTargets: s.callTargets,
		Stats:       s.stats,
	}
}
