package sfs

import (
	"context"

	"vsfs/internal/bitset"
	"vsfs/internal/graph"
	"vsfs/internal/guard"
	"vsfs/internal/ir"
	"vsfs/internal/obs"
	"vsfs/internal/svfg"
)

// EngineStats counts the engine's work; SFS's and VSFS's Stats both
// embed it. Propagations and Changed also count the memory side's
// unions.
type EngineStats struct {
	NodesProcessed int // worklist pops
	Propagations   int // set unions attempted
	Changed        int // unions that grew the target
	TopLevelWords  int // words backing top-level points-to sets
	CallEdges      int // resolved (call site, callee) pairs
	WorklistHW     int // worklist high-water mark

	Store bitset.StoreStats // the solve's set store
}

// Memory is the address-taken half of a flow-sensitive solve: where
// (node, object) points-to facts live and how they move. The engine
// calls it once per popped load (per pointee), store or identity node,
// and once per newly resolved call edge. Sets are IDs in the engine's
// store, Engine.Sets.
type Memory interface {
	// Consumed returns what a load reads for its slot sl = (ℓ, o).
	Consumed(sl int) uint32
	// Store applies [STORE] and [SU/WU] at the store in, *p = q, given
	// pt(p), pt(q) and whether the store strongly updates.
	Store(in *ir.Instr, ptp, ptq uint32, strong bool)
	// Forward applies the object transfer of an identity node: MEMPHI,
	// CallRet, FUNENTRY, FUNEXIT or a call.
	Forward(in *ir.Instr)
	// Wire adds the memory chains of a newly resolved (call, callee)
	// pair to the graph and ships along them what is already there.
	Wire(call *ir.Instr, callee *ir.Function)
}

// TopLevel is the top-level half of a flow-sensitive answer: one
// points-to set per top-level pointer (they are in SSA form) and the
// resolved callees of every call.
type TopLevel struct {
	Graph *svfg.Graph

	// pt[v] is the points-to set of top-level pointer v, nil when empty;
	// equal sets are one shared set. Like every set here it holds object
	// numbers. The engine fills it when its solve ends.
	pt []*bitset.Sparse

	// callees[ℓ] holds the resolved callees of the call at label ℓ.
	callees map[uint32]map[*ir.Function]bool
}

var empty = bitset.New()

// PointsTo returns the flow-sensitive points-to set of a top-level
// pointer. The caller must not mutate it.
func (t *TopLevel) PointsTo(v ir.ID) *bitset.Sparse {
	if int(v) < len(t.pt) && t.pt[v] != nil {
		return t.pt[v]
	}
	return empty
}

// CalleesOf returns the flow-sensitively resolved callees of a call,
// ordered by name with ties broken by entry label: names alone are not
// unique (Function.Name is a mutable display string), and sorting map
// keys by a non-unique key leaks map iteration order into the result.
func (t *TopLevel) CalleesOf(call *ir.Instr) []*ir.Function {
	m := t.callees[call.Label]
	out := make([]*ir.Function, 0, len(m))
	for f := range m {
		out = append(out, f)
	}
	ir.SortFuncs(out)
	return out
}

// Engine is the top-level half of a flow-sensitive solve, shared by SFS
// and VSFS: the worklist, the Alloc, Copy, Phi, Field and Load rules,
// and on-the-fly call resolution. A Memory supplies the rest.
type Engine struct {
	*TopLevel

	// Sets is the solve's set store, which the memory side shares;
	// ptIDs[v] is top-level pointer v's set in it.
	Sets  *bitset.Store
	ptIDs []uint32

	mem   Memory
	stats *EngineStats
	ctx   context.Context

	// attr charges solver work to owning objects, by value ID; nil (a
	// no-op receiver) when attribution is off. Every Stats increment
	// pairs with exactly one charge, with ID 0 as the bucket for
	// top-level work, so per-object sums are conserved against the
	// solver-wide gauges.
	attr *obs.ObjectAttr
	work graph.Worklist // node labels

	// fsCallers maps a function to the call-site labels resolved to it,
	// so a growing return value reschedules its callers.
	fsCallers map[*ir.Function][]uint32

	// meter charges the budget with the edges the graph's overflow
	// gained past overflow0, its size when the solve began, and the
	// sets the store keeps.
	meter     guard.Meter
	overflow0 int64
}

// NewEngine returns an engine over g that answers into top and counts
// into stats. A memory side holds it by value, so a solve allocates no
// engine of its own.
func NewEngine(ctx context.Context, g *svfg.Graph, top *TopLevel, stats *EngineStats) Engine {
	// Every reached call gets a callee entry, so the table is sized for
	// all of them up front rather than grown.
	calls := 0
	for _, in := range g.Prog.Instrs[1:] {
		if in.Op == ir.Call {
			calls++
		}
	}
	*top = TopLevel{
		Graph:   g,
		callees: make(map[uint32]map[*ir.Function]bool, calls),
	}
	return Engine{
		TopLevel:  top,
		Sets:      bitset.NewStore(),
		ptIDs:     make([]uint32, g.Prog.NumValues()+1),
		stats:     stats,
		ctx:       ctx,
		attr:      obs.AttrFrom(ctx),
		work:      graph.NewWorklist(len(g.Prog.Instrs)),
		fsCallers: make(map[*ir.Function][]uint32),
		overflow0: g.OverflowBytes(),
	}
}

// cancelCheckInterval is how many worklist pops pass between budget
// polls in the solving loop.
const cancelCheckInterval = 1024

// Run solves to fixpoint with mem as the memory side and fills the
// top-level sets. It polls the budget every cancelCheckInterval pops
// and returns its error, with the graph mutated and to be discarded.
func (e *Engine) Run(mem Memory) error {
	e.mem = mem
	prog := e.Graph.Prog
	for l := 1; l < len(prog.Instrs); l++ {
		e.Push(uint32(l))
	}
	for steps := 0; ; steps++ {
		if steps%cancelCheckInterval == 0 {
			if err := e.tick(); err != nil {
				return err
			}
		}
		l, ok := e.work.Pop()
		if !ok {
			break
		}
		e.stats.NodesProcessed++
		in := prog.Instrs[l]
		e.attr.Pop(popOwner(e.Graph, in))
		e.process(in)
	}
	e.stats.WorklistHW = e.work.HighWater()
	for _, id := range e.ptIDs {
		e.stats.TopLevelWords += e.Sets.Get(id).Words()
	}
	e.pt = e.Sets.Sets(e.ptIDs)
	return nil
}

// tick polls the budget, charging it with the storage grown since the
// last poll.
func (e *Engine) tick() error {
	bytes := e.Graph.OverflowBytes() - e.overflow0 + int64(e.Sets.Words())*bitset.WordBytes
	return e.meter.Tick(e.ctx, "solve", cancelCheckInterval, bytes)
}

// Push schedules the node labelled l unless it is already queued.
func (e *Engine) Push(l uint32) { e.work.Push(l) }

// popOwner charges a worklist pop to the object whose memory state the
// node manipulates: the smallest χ'd object for stores, the smallest
// μ'd object for loads, the unattributed bucket otherwise.
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

// ptOf returns the ID of v's top-level set.
func (e *Engine) ptOf(v ir.ID) uint32 {
	if int(v) < len(e.ptIDs) {
		return e.ptIDs[v]
	}
	return 0
}

// setPt makes id v's top-level set; if that changes the set, it counts
// the change and reschedules v's users.
func (e *Engine) setPt(v ir.ID, id uint32) {
	if id == e.ptOf(v) {
		return
	}
	if int(v) >= len(e.ptIDs) {
		// Values created since the solve began.
		e.ptIDs = append(e.ptIDs, make([]uint32, e.Graph.Prog.NumValues()+1-len(e.ptIDs))...)
	}
	e.ptIDs[v] = id
	e.stats.Changed++
	for _, u := range e.Graph.UsersOf(v) {
		e.Push(u)
	}
}

// addPt unions src into the top-level set of v and reschedules v's users
// on change.
func (e *Engine) addPt(v ir.ID, src uint32) {
	e.stats.Propagations++
	e.attr.Prop(0)
	e.setPt(v, e.Sets.Union(e.ptOf(v), src))
}

// process applies the rules of a node visit. Stores and identity nodes
// hand their object work to the memory side, in the same place of the
// visit for both solvers, so the worklist order is the memory side's
// only effect on it.
func (e *Engine) process(in *ir.Instr) {
	g := e.Graph
	switch in.Op {
	case ir.Alloc:
		e.stats.Propagations++
		e.attr.Prop(0)
		e.setPt(in.Def, e.Sets.Insert(e.ptOf(in.Def), uint32(g.Prog.ObjNum(in.Obj))))

	case ir.Copy:
		e.addPt(in.Def, e.ptOf(in.Uses[0]))

	case ir.Phi:
		for _, u := range in.Uses {
			e.addPt(in.Def, e.ptOf(u))
		}

	case ir.Field:
		prog := g.Prog
		add := bitset.New()
		e.Sets.Get(e.ptOf(in.Uses[0])).ForEach(func(o uint32) {
			if prog.ObjValue(ir.Obj(o)).ObjKind == ir.FuncObj {
				return
			}
			add.Set(uint32(prog.ObjNum(prog.FieldObj(prog.ObjID(ir.Obj(o)), in.Off))))
		})
		e.addPt(in.Def, e.Sets.CanonID(add))

	case ir.Load:
		// [LOAD]: pt(p) ⊇ what the load consumes for (ℓ, o), for each
		// o ∈ pt(q). Stored sets are frozen, so the loop walks pt(q) as
		// it was when the visit began.
		l := in.Label
		e.Sets.Get(e.ptOf(in.Uses[0])).ForEach(func(o uint32) {
			set := uint32(0)
			if sl, ok := g.Slot(l, ir.Obj(o)); ok {
				set = e.mem.Consumed(sl)
			}
			e.addPt(in.Def, set)
		})

	case ir.Store:
		// The strong-update predicate is evaluated on the *auxiliary*
		// points-to set of p: it fires iff pts^aux(p) is a single
		// singleton object, which implies the store always writes exactly
		// that object when it executes. Evaluating it on the in-flight
		// flow-sensitive set (as SVF does) makes the result depend on
		// worklist order — values can slip through the pass-through
		// before pt(p) resolves — which would break the exact SFS ≡ VSFS
		// equality the paper claims; the static predicate makes both
		// solvers least fixpoints of identical monotone equations.
		p, q := in.Uses[0], in.Uses[1]
		single, ok := g.Aux.PointsTo(p).Single()
		e.mem.Store(in, e.ptOf(p), e.ptOf(q), ok && g.IsSingleton(ir.Obj(single)))

	case ir.Call:
		e.processCall(in)
		e.mem.Forward(in)

	case ir.FunExit:
		// Reschedule resolved callers when the return value grows; the
		// object flows to CallRet nodes are the memory side's.
		for _, c := range e.fsCallers[in.Parent] {
			e.Push(c)
		}
		e.mem.Forward(in)

	case ir.FunEntry, ir.MemPhi, ir.CallRet:
		e.mem.Forward(in)
	}
}

// processCall wires top-level argument/return flow for every resolved
// callee and performs on-the-fly call-graph resolution for indirect
// calls, adding the interprocedural indirect edges the paper's gray
// [CALL]/[RET] rules describe.
func (e *Engine) processCall(in *ir.Instr) {
	g := e.Graph
	if in.Callee != nil {
		e.wireCallee(in, in.Callee)
		return
	}
	if g.Prewired {
		// Ablation mode: the auxiliary call graph was wired at build
		// time; resolve targets from it instead of flow-sensitive
		// function-pointer values.
		for _, callee := range g.Aux.CalleesOf(in) {
			e.wireCallee(in, callee)
		}
		return
	}
	prog := g.Prog
	e.Sets.Get(e.ptOf(in.CalleePtr())).ForEach(func(o uint32) {
		v := prog.ObjValue(ir.Obj(o))
		if v.ObjKind == ir.FuncObj {
			e.wireCallee(in, v.Func)
		}
	})
}

func (e *Engine) wireCallee(call *ir.Instr, callee *ir.Function) {
	m := e.callees[call.Label]
	if m == nil {
		m = make(map[*ir.Function]bool)
		e.callees[call.Label] = m
	}
	if !m[callee] {
		m[callee] = true
		e.stats.CallEdges++
		e.fsCallers[callee] = append(e.fsCallers[callee], call.Label)
		e.mem.Wire(call, callee)
		e.Push(callee.EntryInstr.Label)
	}

	// Top-level flow (repeated on every call reprocessing: argument sets
	// grow monotonically).
	args := call.CallArgs()
	for i, a := range args {
		if i >= len(callee.Params) {
			break
		}
		e.addPt(callee.Params[i], e.ptOf(a))
	}
	if call.Def != ir.None && callee.Ret != ir.None {
		e.addPt(call.Def, e.ptOf(callee.Ret))
	}
}
