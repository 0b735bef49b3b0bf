// Package sfs holds the one flow-sensitive solving engine and staged
// flow-sensitive analysis (SFS; Hardekopf & Lin, CGO'11), the baseline
// the paper's VSFS improves on, as its first memory side.
//
// The engine owns the top-level half that SFS and VSFS share: one
// global points-to set per top-level pointer (they are in SSA form),
// the worklist, the Alloc, Copy, Phi, Field and Load rules, and
// on-the-fly call-graph resolution from flow-sensitive points-to
// results. A Memory owns the address-taken half. SFS's keeps an IN set
// per (node, object) slot of the SVFG and an OUT set per store slot,
// following equations (6)–(7) of the paper; internal/core's keeps one
// set per (object, version). Strong updates are applied at stores
// whose base pointer resolves to a single singleton object.
package sfs

import (
	"context"

	"vsfs/internal/bitset"
	"vsfs/internal/ir"
	"vsfs/internal/obs"
	"vsfs/internal/svfg"
)

// Stats quantifies solver effort and storage, the quantities Table III's
// time and memory columns are driven by.
type Stats struct {
	EngineStats
	PtsSets  int // (node, object) points-to sets stored in IN/OUT slots
	PtsWords int // total 64-bit words backing those sets
}

// Result holds the analysis outcome. Equal sets in it are one shared
// set.
type Result struct {
	TopLevel

	// in[s] and out[s] are IN[ℓ](o) and OUT[ℓ](o) for the SVFG slot
	// s = (ℓ, o). in[s] is nil when empty; out[s] is set at store slots
	// only, where every visit of the store writes it.
	in  []*bitset.Sparse
	out []*bitset.Sparse

	// summary[o] is ObjectSummary(o), nil when empty.
	summary []*bitset.Sparse

	Stats Stats
}

// ObjectSummary returns the union of o's points-to sets over every
// program point: everything the object may ever hold. Used by clients
// that want a per-variable (rather than per-point) answer.
func (r *Result) ObjectSummary(o ir.Obj) *bitset.Sparse {
	if int(o) < len(r.summary) && r.summary[o] != nil {
		return r.summary[o]
	}
	return empty
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
	sp := obs.StartSpan(ctx, "sfs")
	r := &Result{}
	m := &memory{
		Result: r,
		attr:   obs.AttrFrom(ctx),
		inIDs:  make([]uint32, g.NumSlots()),
		outIDs: make([]uint32, g.NumSlots()),
	}
	m.e = NewEngine(ctx, g, &r.TopLevel, &r.Stats.EngineStats)
	if err := m.e.Run(m); err != nil {
		return nil, err
	}
	m.finish()
	sp.Arg("nodesProcessed", r.Stats.NodesProcessed).
		Arg("propagations", r.Stats.Propagations).
		Arg("ptsSets", r.Stats.PtsSets).
		Arg("storeSets", r.Stats.Store.Sets).
		Arg("memoHits", r.Stats.Store.MemoHits).
		Arg("memoMisses", r.Stats.Store.MemoMisses).
		End()
	return r, nil
}

// memory is SFS's memory side: IN and OUT sets per (node, object) slot,
// equations (6)–(7), as IDs in the engine's store until the solve ends.
type memory struct {
	*Result
	e    Engine
	attr *obs.ObjectAttr

	inIDs, outIDs []uint32

	// gained holds the successors one slot gained, while they are read.
	gained []uint32
}

// owner returns the value ID attribution charges object o's work to.
func (m *memory) owner(o ir.Obj) uint32 { return uint32(m.Graph.Prog.ObjID(o)) }

// propagate pushes a source set into the IN set of slot t = (ℓ, o),
// rescheduling ℓ on change ([A-PROP] of the SFS formulation).
func (m *memory) propagate(t int, src uint32) {
	if src == 0 {
		return
	}
	m.Stats.Propagations++
	m.attr.Prop(m.owner(m.Graph.SlotObj(t)))
	if in := m.e.Sets.Union(m.inIDs[t], src); in != m.inIDs[t] {
		m.inIDs[t] = in
		m.Stats.Changed++
		m.e.Push(m.Graph.SlotNode(t))
	}
}

// propagateOut runs [A-PROP] from slot sl along every outgoing indirect
// edge, the built ones and then the gained ones.
func (m *memory) propagateOut(sl int, src uint32) {
	g := m.Graph
	for _, t := range g.SlotSuccs(sl) {
		m.propagate(int(t), src)
	}
	if g.HasGained(sl) {
		m.gained = g.AppendGained(m.gained[:0], sl)
		for _, t := range m.gained {
			m.propagate(int(t), src)
		}
	}
}

// Consumed reads IN[ℓ](o) for a load.
func (m *memory) Consumed(sl int) uint32 { return m.inIDs[sl] }

// Forward implements the identity transfer of non-store nodes: OUT = IN,
// then [A-PROP] along every outgoing indirect edge, in slot (so
// ascending object) order.
func (m *memory) Forward(in *ir.Instr) {
	lo, hi := m.Graph.SlotRange(in.Label)
	for sl := lo; sl < hi; sl++ {
		if src := m.inIDs[sl]; src != 0 {
			m.propagateOut(sl, src)
		}
	}
}

// Store applies [STORE] and [SU/WU]: for each pointee o of p, OUT(o) =
// pt(q) if the store strongly updates o, else IN(o) ∪ pt(q); χ'd objects
// not pointed to by p (per flow-sensitive information) pass through,
// OUT(o) = IN(o).
func (m *memory) Store(in *ir.Instr, ptp, ptq uint32, strong bool) {
	g, sets := m.Graph, m.e.Sets
	pointees := sets.Get(ptp)
	// A store's slots are its χ.
	lo, hi := g.SlotRange(in.Label)
	for sl := lo; sl < hi; sl++ {
		o := g.SlotObj(sl)
		out := m.outIDs[sl]
		m.Stats.Propagations++
		m.attr.Prop(m.owner(o))
		if strong {
			// Kill: only the stored value survives.
			out = sets.Union(out, ptq)
		} else {
			out = sets.Union(out, m.inIDs[sl])
			if pointees.Has(uint32(o)) {
				m.Stats.Propagations++
				m.attr.Prop(m.owner(o))
				out = sets.Union(out, ptq)
			}
		}
		changed := out != m.outIDs[sl]
		m.outIDs[sl] = out
		if changed {
			m.Stats.Changed++
		}
		if changed || out != 0 {
			m.propagateOut(sl, out)
		}
	}
}

// Wire adds the call's interprocedural indirect edges (for direct calls
// they exist in the built graph already) and ships anything already
// sitting at the callee's exit.
func (m *memory) Wire(call *ir.Instr, callee *ir.Function) {
	g := m.Graph
	g.AddCallEdges(call, callee, nil)
	g.MSSA.CallChains(call, callee, func(from, to int) {
		if g.SlotNode(from) == callee.ExitInstr.Label {
			m.propagate(to, m.inIDs[from])
		}
	})
}

// finish hands the solved sets to the Result: IN at every slot, OUT at
// every store slot (every store is visited, so each has written its
// OUT), and each object's summary, the union of its IN and OUT sets.
// It then sizes the IN/OUT storage.
func (m *memory) finish() {
	g, sets := m.Graph, m.e.Sets
	m.in = sets.Sets(m.inIDs)
	m.out = make([]*bitset.Sparse, len(m.outIDs))
	for sl, id := range m.outIDs {
		if g.Prog.Instrs[g.SlotNode(sl)].Op == ir.Store {
			m.out[sl] = sets.Get(id)
		}
	}
	summary := make([]uint32, g.Prog.NumObjects())
	for o := range summary {
		for _, sl := range g.ObjSlots(ir.Obj(o)) {
			summary[o] = sets.Union(summary[o], sets.Union(m.inIDs[sl], m.outIDs[sl]))
		}
	}
	m.summary = sets.Sets(summary)
	m.collectStats()
	m.Stats.Store = sets.Stats()
}

// collectStats sizes the IN/OUT storage at fixpoint, counting each
// slot's sets as the paper's SFS stores them, one per slot. Sets only
// grow during solving, so the fixpoint sizes are also the peaks.
func (m *memory) collectStats() {
	for _, sets := range [2][]*bitset.Sparse{m.in, m.out} {
		for sl, set := range sets {
			if set != nil {
				m.Stats.PtsSets++
				m.Stats.PtsWords += set.Words()
				m.attr.Set(m.owner(m.Graph.SlotObj(sl)))
			}
		}
	}
}
