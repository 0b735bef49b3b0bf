// Package sfs implements staged flow-sensitive points-to analysis
// (Hardekopf & Lin, CGO'11) on the sparse value-flow graph: the baseline
// the paper's VSFS improves on. Top-level pointers have one global
// points-to set each (they are in SSA form); every (node, object) slot of
// the SVFG keeps an IN set and every store slot additionally keeps an OUT
// set, following equations (6)–(7) of the paper. Strong updates are
// applied at stores whose base pointer resolves to a single singleton
// object. The call graph is resolved on the fly from flow-sensitive
// points-to results.
package sfs

import (
	"context"

	"vsfs/internal/bitset"
	"vsfs/internal/guard"
	"vsfs/internal/ir"
	"vsfs/internal/obs"
	"vsfs/internal/svfg"
)

// Stats quantifies solver effort and storage, the quantities Table III's
// time and memory columns are driven by.
type Stats struct {
	NodesProcessed int // worklist pops
	Propagations   int // set unions attempted along value-flow edges
	Changed        int // unions that grew the target
	PtsSets        int // (node, object) points-to sets stored in IN/OUT slots
	PtsWords       int // total 64-bit words backing those sets
	TopLevelWords  int // words backing top-level points-to sets
	CallEdges      int // resolved (call site, callee) pairs
	WorklistHW     int // worklist high-water mark
}

// Result holds the analysis outcome.
type Result struct {
	Graph *svfg.Graph

	// pt[v] is the points-to set of top-level pointer v; in[s] and
	// out[s] are IN[ℓ](o) and OUT[ℓ](o) for the SVFG slot s = (ℓ, o), nil
	// until first written (out at store slots only). Like every set here
	// they hold object numbers.
	pt []*bitset.Sparse

	in  []*bitset.Sparse
	out []*bitset.Sparse

	// callees[ℓ] holds the resolved callees of the call at label ℓ.
	callees []map[*ir.Function]bool

	Stats Stats
}

// PointsTo returns the flow-sensitive points-to set of a top-level
// pointer. The caller must not mutate it.
func (r *Result) PointsTo(v ir.ID) *bitset.Sparse {
	if int(v) < len(r.pt) && r.pt[v] != nil {
		return r.pt[v]
	}
	return empty
}

// CalleesOf returns the flow-sensitively resolved callees of a call.
func (r *Result) CalleesOf(call *ir.Instr) []*ir.Function {
	var m map[*ir.Function]bool
	if int(call.Label) < len(r.callees) {
		m = r.callees[call.Label]
	}
	out := make([]*ir.Function, 0, len(m))
	for f := range m {
		out = append(out, f)
	}
	sortFuncs(out)
	return out
}

// ObjectSummary returns the union of o's points-to sets over every
// program point: everything the object may ever hold. Used by clients
// that want a per-variable (rather than per-point) answer.
func (r *Result) ObjectSummary(o ir.Obj) *bitset.Sparse {
	out := bitset.New()
	for _, sl := range r.Graph.ObjSlots(o) {
		if set := r.in[sl]; set != nil {
			out.UnionWith(set)
		}
		if set := r.out[sl]; set != nil {
			out.UnionWith(set)
		}
	}
	return out
}

// ConsumedSet returns IN[ℓ](o): what object o may hold immediately
// before the instruction labelled ℓ — the set VSFS answers with
// pt_{ξ_ℓ(o)}(o).
func (r *Result) ConsumedSet(label uint32, o ir.Obj) *bitset.Sparse {
	if sl, ok := r.Graph.Slot(label, o); ok {
		return r.inAt(sl)
	}
	return empty
}

// YieldedSet returns OUT[ℓ](o) as the propagation rules see it: the store's
// own OUT entry if it has one, otherwise IN (all other nodes are
// identity for objects).
func (r *Result) YieldedSet(label uint32, o ir.Obj) *bitset.Sparse {
	if sl, ok := r.Graph.Slot(label, o); ok {
		if set := r.out[sl]; set != nil {
			return set
		}
		return r.inAt(sl)
	}
	return empty
}

// inAt reads slot sl's IN set without materialising it, so reads do not
// inflate the stored-set statistics (the paper counts points-to sets
// actually maintained).
func (r *Result) inAt(sl int) *bitset.Sparse {
	if set := r.in[sl]; set != nil {
		return set
	}
	return empty
}

var empty = bitset.New()

// sortFuncs orders callees by name, breaking ties by entry label:
// Function.Name is a mutable display string with no uniqueness
// guarantee, and a sort keyed on it alone would leak map iteration
// order whenever two distinct functions share a name.
func sortFuncs(fs []*ir.Function) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && funcLess(fs[j], fs[j-1]); j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

func funcLess(a, b *ir.Function) bool {
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	return a.EntryInstr.Label < b.EntryInstr.Label
}

// Solve runs the analysis to fixpoint. It mutates g (on-the-fly indirect
// edges); pass a fresh or cloned graph.
func Solve(g *svfg.Graph) *Result {
	r, _ := SolveContext(context.Background(), g)
	return r
}

// SolveContext is Solve with cancellation: the worklist loop polls ctx
// every cancelCheckInterval pops and aborts with ctx.Err() when the
// context is done. A cancelled solve returns no Result; the mutated
// graph must be discarded.
func SolveContext(ctx context.Context, g *svfg.Graph) (*Result, error) {
	s := &state{
		Result: &Result{
			Graph:   g,
			pt:      make([]*bitset.Sparse, g.Prog.NumValues()+1),
			in:      make([]*bitset.Sparse, g.NumSlots()),
			out:     make([]*bitset.Sparse, g.NumSlots()),
			callees: make([]map[*ir.Function]bool, len(g.Prog.Instrs)),
		},
		ctx:       ctx,
		attr:      obs.AttrFrom(ctx),
		fsCallers: make(map[*ir.Function][]uint32),
		charged:   g.OverflowBytes(),
	}
	if err := s.run(); err != nil {
		return nil, err
	}
	s.Stats.WorklistHW = s.work.hw
	s.collectStats()
	return s.Result, nil
}

// cancelCheckInterval is how many worklist pops pass between context
// polls in the solving loop.
const cancelCheckInterval = 1024

type state struct {
	*Result

	ctx  context.Context
	work worklist

	// attr charges solver work to owning objects, by value ID (see
	// owner); nil (no-op receiver) when attribution is off. Every Stats
	// increment pairs with exactly one charge — ID 0 buckets top-level
	// work — so per-object sums are conserved against the solver-wide
	// gauges.
	attr *obs.ObjectAttr

	// fsCallers maps a function to the call-site labels resolved to it,
	// so a growing return value reschedules its callers.
	fsCallers map[*ir.Function][]uint32

	// charged is the part of the graph's overflow (the edges it gained)
	// already charged to the budget.
	charged int64

	// gained holds the successors one slot gained, while they are read.
	gained []uint32
}

// worklist is FIFO with a membership set.
type worklist struct {
	queue []uint32
	in    bitset.Sparse
	hw    int // high-water mark of queued nodes
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

func (s *state) ptOf(v ir.ID) *bitset.Sparse {
	if int(v) >= len(s.pt) {
		grown := make([]*bitset.Sparse, s.Graph.Prog.NumValues()+1)
		copy(grown, s.pt)
		s.pt = grown
	}
	if s.pt[v] == nil {
		s.pt[v] = bitset.New()
	}
	return s.pt[v]
}

// slotSet returns sets[sl], materialising it on first use.
func slotSet(sets []*bitset.Sparse, sl int) *bitset.Sparse {
	if sets[sl] == nil {
		sets[sl] = bitset.New()
	}
	return sets[sl]
}

// addPt unions src into the top-level set of v and reschedules v's users
// on change.
func (s *state) addPt(v ir.ID, src *bitset.Sparse) {
	s.Stats.Propagations++
	s.attr.Prop(0)
	if s.ptOf(v).UnionWith(src) {
		s.Stats.Changed++
		for _, u := range s.Graph.UsersOf(v) {
			s.work.push(u)
		}
	}
}

// propagate pushes a source set into the IN set of slot t = (ℓ, o),
// rescheduling ℓ on change ([A-PROP] of the SFS formulation).
func (s *state) propagate(t int, src *bitset.Sparse) {
	if src.IsEmpty() {
		return
	}
	s.Stats.Propagations++
	s.attr.Prop(s.owner(s.Graph.SlotObj(t)))
	if slotSet(s.in, t).UnionWith(src) {
		s.Stats.Changed++
		s.work.push(s.Graph.SlotNode(t))
	}
}

// tick polls the budget every cancelCheckInterval pops, charging it
// with the graph's overflow grown since the last poll.
func (s *state) tick() error {
	grown := s.Graph.OverflowBytes() - s.charged
	s.charged += grown
	return guard.TickBytes(s.ctx, "solve", cancelCheckInterval, grown)
}

func (s *state) run() error {
	prog := s.Graph.Prog
	for l := 1; l < len(prog.Instrs); l++ {
		s.work.push(uint32(l))
	}
	for steps := 0; ; steps++ {
		if steps%cancelCheckInterval == 0 {
			if err := s.tick(); err != nil {
				return err
			}
		}
		l, ok := s.work.pop()
		if !ok {
			return nil
		}
		s.Stats.NodesProcessed++
		in := prog.Instrs[l]
		s.attr.Pop(popOwner(s.Graph, in))
		s.process(in)
	}
}

// owner returns the value ID attribution charges object o's work to.
func (s *state) owner(o ir.Obj) uint32 { return uint32(s.Graph.Prog.ObjID(o)) }

// popOwner charges a worklist pop to the object whose memory state the
// node manipulates: the smallest χ'd object for stores, the smallest
// μ'd object for loads, the unattributed bucket otherwise. The same
// rule internal/core uses, so per-backend attribution is comparable.
func popOwner(g *svfg.Graph, in *ir.Instr) uint32 {
	switch in.Op {
	case ir.Store:
		if chi := g.MSSA.ChiOf(in.Label); !chi.IsEmpty() {
			return uint32(g.Prog.ObjID(ir.Obj(chi.Min())))
		}
	case ir.Load:
		if mu := g.MSSA.MuOf(in.Label); !mu.IsEmpty() {
			return uint32(g.Prog.ObjID(ir.Obj(mu.Min())))
		}
	}
	return 0
}

func (s *state) process(in *ir.Instr) {
	g := s.Graph
	l := in.Label
	switch in.Op {
	case ir.Alloc:
		s.Stats.Propagations++
		s.attr.Prop(0)
		if s.ptOf(in.Def).Set(uint32(g.Prog.ObjNum(in.Obj))) {
			s.Stats.Changed++
			for _, u := range g.UsersOf(in.Def) {
				s.work.push(u)
			}
		}

	case ir.Copy:
		s.addPt(in.Def, s.ptOf(in.Uses[0]))

	case ir.Phi:
		for _, u := range in.Uses {
			s.addPt(in.Def, s.ptOf(u))
		}

	case ir.Field:
		prog := g.Prog
		add := bitset.New()
		s.ptOf(in.Uses[0]).ForEach(func(o uint32) {
			if prog.ObjValue(ir.Obj(o)).ObjKind == ir.FuncObj {
				return
			}
			add.Set(uint32(prog.ObjNum(prog.FieldObj(prog.ObjID(ir.Obj(o)), in.Off))))
		})
		s.addPt(in.Def, add)

	case ir.Load:
		// [LOAD]: pt(p) ⊇ IN[ℓ](o) for each o ∈ pt(q).
		s.ptOf(in.Uses[0]).Clone().ForEach(func(o uint32) {
			s.addPt(in.Def, s.ConsumedSet(l, ir.Obj(o)))
		})

	case ir.Store:
		s.processStore(in)

	case ir.Call:
		s.processCall(in)
		s.forwardObjects(in) // μ-side pass-through to callee entries

	case ir.FunExit:
		// Reschedule resolved callers when the return value grows; the
		// object flows to CallRet nodes ride the indirect edges.
		for _, c := range s.fsCallers[in.Parent] {
			s.work.push(c)
		}
		s.forwardObjects(in)

	case ir.FunEntry, ir.MemPhi, ir.CallRet:
		s.forwardObjects(in)
	}
}

// forwardObjects implements the identity transfer of non-store nodes:
// OUT = IN, then [A-PROP] along every outgoing indirect edge, in slot
// (so ascending object) order.
func (s *state) forwardObjects(in *ir.Instr) {
	g := s.Graph
	lo, hi := g.SlotRange(in.Label)
	for sl := lo; sl < hi; sl++ {
		if src := s.in[sl]; src != nil {
			for _, t := range g.SlotSuccs(sl) {
				s.propagate(int(t), src)
			}
			if g.HasGained(sl) {
				s.gained = g.AppendGained(s.gained[:0], sl)
				for _, t := range s.gained {
					s.propagate(int(t), src)
				}
			}
		}
	}
}

// processStore applies [STORE] and [SU/WU]: for each pointee o of p,
// OUT(o) = pt(q) if the store strongly updates o, else IN(o) ∪ pt(q);
// χ'd objects not pointed to by p (per flow-sensitive information) pass
// through, OUT(o) = IN(o).
//
// The strong-update predicate is evaluated on the *auxiliary* points-to
// set of p: it fires iff pts^aux(p) is a single singleton object, which
// implies the store always writes exactly that object when it executes.
// Evaluating it on the in-flight flow-sensitive set (as SVF does) makes
// the result depend on worklist order — values can slip through the
// pass-through before pt(p) resolves — which would break the exact
// SFS ≡ VSFS equality the paper claims; the static predicate makes both
// solvers least fixpoints of identical monotone equations.
func (s *state) processStore(in *ir.Instr) {
	g := s.Graph
	l := in.Label
	p, q := in.Uses[0], in.Uses[1]
	ptp := s.ptOf(p)
	ptq := s.ptOf(q)

	strong := false
	if single, ok := g.Aux.PointsTo(p).Single(); ok && g.IsSingleton(ir.Obj(single)) {
		strong = true
	}

	// A store's slots are its χ.
	lo, hi := g.SlotRange(l)
	for sl := lo; sl < hi; sl++ {
		o := g.SlotObj(sl)
		out := slotSet(s.out, sl)
		changed := false
		if strong {
			// Kill: only the stored value survives.
			s.Stats.Propagations++
			s.attr.Prop(s.owner(o))
			changed = out.UnionWith(ptq)
		} else {
			s.Stats.Propagations++
			s.attr.Prop(s.owner(o))
			changed = out.UnionWith(s.inAt(sl))
			if ptp.Has(uint32(o)) {
				s.Stats.Propagations++
				s.attr.Prop(s.owner(o))
				if out.UnionWith(ptq) {
					changed = true
				}
			}
		}
		if changed {
			s.Stats.Changed++
		}
		if changed || !out.IsEmpty() {
			for _, t := range g.SlotSuccs(sl) {
				s.propagate(int(t), out)
			}
			if g.HasGained(sl) {
				s.gained = g.AppendGained(s.gained[:0], sl)
				for _, t := range s.gained {
					s.propagate(int(t), out)
				}
			}
		}
	}
}

// processCall wires top-level argument/return flow for every resolved
// callee and performs on-the-fly call-graph resolution for indirect
// calls, adding the interprocedural indirect edges the paper's gray
// [CALL]/[RET] rules describe.
func (s *state) processCall(in *ir.Instr) {
	g := s.Graph
	if in.Callee != nil {
		s.wireCallee(in, in.Callee)
		return
	}
	if g.Prewired {
		// Ablation mode: the auxiliary call graph was wired at build
		// time; resolve targets from it instead of flow-sensitive
		// function-pointer values.
		for _, callee := range g.Aux.CalleesOf(in) {
			s.wireCallee(in, callee)
		}
		return
	}
	prog := g.Prog
	s.ptOf(in.CalleePtr()).Clone().ForEach(func(o uint32) {
		v := prog.ObjValue(ir.Obj(o))
		if v.ObjKind == ir.FuncObj {
			s.wireCallee(in, v.Func)
		}
	})
}

func (s *state) wireCallee(call *ir.Instr, callee *ir.Function) {
	g := s.Graph
	m := s.callees[call.Label]
	if m == nil {
		m = make(map[*ir.Function]bool)
		s.callees[call.Label] = m
	}
	if !m[callee] {
		// Newly resolved: record and add the interprocedural indirect
		// edges (for direct calls they exist in the built graph already).
		m[callee] = true
		s.Stats.CallEdges++
		s.fsCallers[callee] = append(s.fsCallers[callee], call.Label)

		g.AddCallEdges(call, callee, nil)
		g.MSSA.CallChains(call, callee, func(from, to int) {
			if g.SlotNode(from) == callee.ExitInstr.Label {
				// Ship anything already sitting at the exit.
				s.propagate(to, s.inAt(from))
			}
		})
		s.work.push(callee.EntryInstr.Label)
	}

	// Top-level flow (repeated on every call reprocessing: argument sets
	// grow monotonically).
	args := call.CallArgs()
	for i, a := range args {
		if i >= len(callee.Params) {
			break
		}
		s.addPt(callee.Params[i], s.ptOf(a))
	}
	if call.Def != ir.None && callee.Ret != ir.None {
		s.addPt(call.Def, s.ptOf(callee.Ret))
	}
}

// collectStats sizes the IN/OUT storage at fixpoint. Sets only grow
// during solving, so the fixpoint sizes are also the peaks.
func (s *state) collectStats() {
	for _, sets := range [2][]*bitset.Sparse{s.in, s.out} {
		for sl, set := range sets {
			if set != nil {
				s.Stats.PtsSets++
				s.Stats.PtsWords += set.Words()
				s.attr.Set(s.owner(s.Graph.SlotObj(sl)))
			}
		}
	}
	for _, set := range s.pt {
		if set != nil {
			s.Stats.TopLevelWords += set.Words()
		}
	}
}
