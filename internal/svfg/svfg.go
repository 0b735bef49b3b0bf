// Package svfg assembles the sparse value-flow graph (SVFG) the
// flow-sensitive analyses run on. Nodes are instruction labels. Direct
// edges carry top-level def-use chains (trivial in partial SSA); indirect
// edges carry per-object def-use chains from the memory-SSA pass. The
// graph also records which nodes are δ nodes (Definition 3 of the paper:
// nodes that may gain incoming indirect edges during on-the-fly
// call-graph resolution) and which objects are singletons (eligible for
// strong updates).
package svfg

import (
	"context"
	"fmt"
	"slices"

	"vsfs/internal/andersen"
	"vsfs/internal/bitset"
	"vsfs/internal/guard"
	"vsfs/internal/ir"
	"vsfs/internal/memssa"
)

// cancelCheckInterval is how many indirect edges are wired between
// context/budget polls during construction.
const cancelCheckInterval = 1024

// Graph is the sparse value-flow graph.
type Graph struct {
	Prog *ir.Program
	Aux  *andersen.Result
	MSSA *memssa.Result

	// DefSite maps a top-level pointer to its defining instruction label
	// (FUNENTRY for parameters), or 0 if it has no definition.
	DefSite []uint32

	// users maps a top-level pointer to the labels of instructions that
	// use it as an operand.
	users [][]uint32

	// Every node ℓ has a fixed object domain μ(ℓ)∪χ(ℓ), ascending; each
	// (node, object) pair of it is a dense slot. ℓ's slots are
	// slotStart[ℓ] .. slotStart[ℓ+1]-1; slotObj[s] and slotNode[s] are
	// slot s's object and node. objSlots[objStart[o]:objStart[o+1]]
	// lists object o's slots, ascending. Immutable after build, so clones
	// share them.
	slotStart []int
	slotObj   []ir.Obj
	slotNode  []uint32
	objStart  []int
	objSlots  []uint32

	// indirOut[s] lists the target slots (ℓ', o) of indirect edges
	// ℓ --o--> ℓ' for slot s = (ℓ, o): an o-edge joins two o-slots, so
	// the object is implied.
	indirOut [][]uint32

	// Delta marks δ nodes. Always false when Prewired.
	Delta []bool

	// Prewired reports that the auxiliary call graph was wired at build
	// time: the solvers resolve calls from the auxiliary results rather
	// than on the fly, and versioning needs no [OTF-CG]^P prelabels.
	Prewired bool

	// singleton[o] ⇒ strong updates are allowed on object number o.
	singleton *bitset.Sparse

	// Stats for Table II.
	NumNodes         int
	NumDirectEdges   int
	NumIndirectEdges int
	NumTopLevel      int
	NumAddressTaken  int
}

// Build assembles the SVFG from a finalized program, its auxiliary
// results and memory-SSA form, with on-the-fly call-graph resolution
// left to the flow-sensitive solvers (the paper's configuration).
func Build(prog *ir.Program, aux *andersen.Result, mssa *memssa.Result) *Graph {
	g, err := build(context.Background(), prog, aux, mssa, false)
	if err != nil {
		// Unreachable: a background context carries no deadline, budget
		// or fault plan, so construction cannot be interrupted.
		panic(err)
	}
	return g
}

// BuildContext is Build with cooperative cancellation: construction
// polls ctx (and any guard budget or fault plan attached to it) between
// sub-passes and periodically while wiring indirect edges, returning
// the context or budget error instead of a Graph.
func BuildContext(ctx context.Context, prog *ir.Program, aux *andersen.Result, mssa *memssa.Result) (*Graph, error) {
	return build(ctx, prog, aux, mssa, false)
}

// BuildAuxCallGraph assembles the SVFG with the auxiliary call graph
// wired in up front: every indirect call's interprocedural edges are
// added for all Andersen-resolved targets and no node is a δ node.
// Section IV-C1 of the paper notes store prelabelling alone is
// sufficient in this configuration; it trades the precision (and,
// per the paper, performance) of on-the-fly resolution for a simpler
// pre-analysis. Kept as an ablation.
func BuildAuxCallGraph(prog *ir.Program, aux *andersen.Result, mssa *memssa.Result) *Graph {
	g, err := build(context.Background(), prog, aux, mssa, true)
	if err != nil {
		panic(err) // unreachable, as in Build
	}
	return g
}

func build(ctx context.Context, prog *ir.Program, aux *andersen.Result, mssa *memssa.Result, prewire bool) (*Graph, error) {
	n := len(prog.Instrs)
	g := &Graph{
		Prog:     prog,
		Aux:      aux,
		MSSA:     mssa,
		Prewired: prewire,
		DefSite:  make([]uint32, prog.NumValues()),
		users:    make([][]uint32, prog.NumValues()),
		Delta:    make([]bool, n),
	}
	if err := guard.Tick(ctx, "svfg", 0); err != nil {
		return nil, err
	}
	g.buildSlots()
	g.buildDirect()
	for i, e := range mssa.Edges {
		if i%cancelCheckInterval == 0 {
			if err := guard.Tick(ctx, "svfg", cancelCheckInterval); err != nil {
				return nil, err
			}
		}
		g.AddIndirectEdge(e.From, e.To, e.Obj)
	}
	if err := guard.Tick(ctx, "svfg", 0); err != nil {
		return nil, err
	}
	if prewire {
		g.prewireIndirectCalls()
	} else {
		g.markDelta()
	}
	if err := guard.Tick(ctx, "svfg", 0); err != nil {
		return nil, err
	}
	g.computeSingletons()
	g.countStats()
	return g, nil
}

// prewireIndirectCalls adds the interprocedural value-flow edges of
// every auxiliary-resolved indirect call at build time.
func (g *Graph) prewireIndirectCalls() {
	for _, f := range g.Prog.Funcs {
		f.ForEachInstr(func(in *ir.Instr) {
			if in.Op != ir.Call || !in.IsIndirectCall() {
				return
			}
			for _, callee := range g.Aux.CalleesOf(in) {
				entry := callee.EntryInstr.Label
				g.MSSA.FormalIn[callee].ForEach(func(o uint32) {
					if g.MSSA.MuOf(in.Label).Has(o) {
						g.AddIndirectEdge(in.Label, entry, ir.Obj(o))
					}
				})
				if ret := g.MSSA.CallRets[in]; ret != nil {
					exit := callee.ExitInstr.Label
					g.MSSA.FormalOut[callee].ForEach(func(o uint32) {
						if g.MSSA.ChiOf(ret.Label).Has(o) {
							g.AddIndirectEdge(exit, ret.Label, ir.Obj(o))
						}
					})
				}
			}
		})
	}
}

// buildSlots numbers every node's μ∪χ domain into dense slots.
func (g *Graph) buildSlots() {
	n := len(g.Prog.Instrs)
	size := 0
	for l := range n {
		size += g.MSSA.MuOf(uint32(l)).Len() + g.MSSA.ChiOf(uint32(l)).Len()
	}
	g.slotStart = make([]int, n+1)
	g.slotObj = make([]ir.Obj, 0, size)
	g.slotNode = make([]uint32, 0, size)
	for l := range n {
		g.slotStart[l] = len(g.slotObj)
		dom := g.MSSA.MuOf(uint32(l))
		if chi := g.MSSA.ChiOf(uint32(l)); dom.IsEmpty() {
			dom = chi
		} else if !chi.IsEmpty() {
			dom = dom.Clone()
			dom.UnionWith(chi)
		}
		dom.ForEach(func(o uint32) {
			g.slotObj = append(g.slotObj, ir.Obj(o))
			g.slotNode = append(g.slotNode, uint32(l))
		})
	}
	g.slotStart[n] = len(g.slotObj)
	g.indirOut = make([][]uint32, len(g.slotObj))

	// Counting sort by object; slots are visited ascending, so each
	// object's list comes out ascending too.
	g.objStart = make([]int, g.Prog.NumObjects()+1)
	for _, o := range g.slotObj {
		g.objStart[o+1]++
	}
	for o := range g.Prog.NumObjects() {
		g.objStart[o+1] += g.objStart[o]
	}
	next := slices.Clone(g.objStart[:len(g.objStart)-1])
	g.objSlots = make([]uint32, len(g.slotObj))
	for s, o := range g.slotObj {
		g.objSlots[next[o]] = uint32(s)
		next[o]++
	}
}

// Clone returns a copy of the graph that can be mutated independently.
// The flow-sensitive solvers add indirect edges during on-the-fly
// call-graph resolution, so running two solvers over one Graph value
// would let the first leak resolution work into the second; clone per
// solver instead. Immutable parts (direct edges, slots and the object
// index, δ marks, singletons) are shared. Successor lists are shared
// too, clipped to their length, so an append on either side
// reallocates instead of writing into the other's array.
func (g *Graph) Clone() *Graph {
	c := *g
	c.indirOut = make([][]uint32, len(g.indirOut))
	for s, succs := range g.indirOut {
		c.indirOut[s] = slices.Clip(succs)
	}
	return &c
}

func (g *Graph) buildDirect() {
	prog := g.Prog
	for _, f := range prog.Funcs {
		f.ForEachInstr(func(in *ir.Instr) {
			if in.Op == ir.FunEntry {
				for _, p := range in.Uses {
					g.DefSite[p] = in.Label
				}
				return
			}
			if in.Def != ir.None {
				g.DefSite[in.Def] = in.Label
			}
			for _, u := range in.Uses {
				g.users[u] = append(g.users[u], in.Label)
			}
		})
	}
	for v := ir.ID(1); int(v) < prog.NumValues(); v++ {
		if g.DefSite[v] != 0 {
			g.NumDirectEdges += len(g.users[v])
		}
	}
	// Interprocedural direct edges (actual→formal, return→result) for
	// auxiliary-resolved targets; counted for Table II parity with SVF.
	for _, f := range prog.Funcs {
		f.ForEachInstr(func(in *ir.Instr) {
			if in.Op != ir.Call {
				return
			}
			for _, callee := range g.Aux.CalleesOf(in) {
				na := len(in.CallArgs())
				if na > len(callee.Params) {
					na = len(callee.Params)
				}
				g.NumDirectEdges += na
				if in.Def != ir.None && callee.Ret != ir.None {
					g.NumDirectEdges++
				}
			}
		})
	}
}

// UsersOf returns the labels of instructions using pointer v. The result
// must not be mutated.
func (g *Graph) UsersOf(v ir.ID) []uint32 { return g.users[v] }

// AddIndirectEdge inserts ℓfrom --obj--> ℓto, reporting whether it was
// new. The flow-sensitive solvers call this during on-the-fly call-graph
// resolution. Both endpoints must carry obj in μ∪χ; an edge outside the
// slot domain is a construction bug and panics.
func (g *Graph) AddIndirectEdge(from, to uint32, obj ir.Obj) bool {
	s, ok := g.Slot(from, obj)
	if !ok {
		g.outsideDomain(from, to, obj, from)
	}
	t, ok := g.Slot(to, obj)
	if !ok {
		g.outsideDomain(from, to, obj, to)
	}
	if slices.Contains(g.indirOut[s], uint32(t)) {
		return false
	}
	g.indirOut[s] = append(g.indirOut[s], uint32(t))
	g.NumIndirectEdges++
	return true
}

func (g *Graph) outsideDomain(from, to uint32, obj ir.Obj, at uint32) {
	name := g.Prog.ObjValue(obj).Name
	panic(fmt.Sprintf("svfg: indirect edge ℓ%d --%s--> ℓ%d: object %s (#%d) is not in μ∪χ of ℓ%d",
		from, name, to, name, obj, at))
}

// Slot returns the slot of (ℓ, o), and false if o is not in μ(ℓ)∪χ(ℓ).
func (g *Graph) Slot(l uint32, o ir.Obj) (int, bool) {
	lo, hi := g.SlotRange(l)
	i, ok := slices.BinarySearch(g.slotObj[lo:hi], o)
	return lo + i, ok
}

// SlotRange returns ℓ's slots: lo .. hi-1, ordered by object.
func (g *Graph) SlotRange(l uint32) (lo, hi int) {
	return g.slotStart[l], g.slotStart[l+1]
}

// NumSlots returns the number of (node, object) slots.
func (g *Graph) NumSlots() int { return len(g.slotObj) }

// SlotObj returns slot s's object.
func (g *Graph) SlotObj(s int) ir.Obj { return g.slotObj[s] }

// SlotNode returns slot s's node.
func (g *Graph) SlotNode(s int) uint32 { return g.slotNode[s] }

// ObjSlots returns object o's slots, ascending; none for an object
// numbered after the graph was built. The result must not be mutated.
func (g *Graph) ObjSlots(o ir.Obj) []uint32 {
	if int(o)+1 >= len(g.objStart) {
		return nil
	}
	return g.objSlots[g.objStart[o]:g.objStart[o+1]]
}

// SlotSuccs returns the target slots of indirect edges out of slot
// s = (ℓ, o), in insertion order; each is a slot of o. The result must
// not be mutated.
func (g *Graph) SlotSuccs(s int) []uint32 { return g.indirOut[s] }

// IndirSuccs returns the target nodes of indirect edges from ℓ labelled
// with obj, in insertion order, as a fresh slice.
func (g *Graph) IndirSuccs(from uint32, obj ir.Obj) []uint32 {
	s, ok := g.Slot(from, obj)
	if !ok {
		return nil
	}
	out := make([]uint32, len(g.indirOut[s]))
	for i, t := range g.indirOut[s] {
		out[i] = g.slotNode[t]
	}
	return out
}

// markDelta marks δ nodes: FUNENTRY of address-taken functions (possible
// indirect-call targets) and the CallRet side of indirect calls (return
// targets of indirect calls).
func (g *Graph) markDelta() {
	for _, f := range g.Prog.Funcs {
		if f.AddressTaken {
			g.Delta[f.EntryInstr.Label] = true
		}
	}
	for call, ret := range g.MSSA.CallRets {
		if call.IsIndirectCall() {
			g.Delta[ret.Label] = true
		}
	}
}

// IsSingleton reports whether o is a singleton object: it stands for
// exactly one concrete memory location, so a store with it as the sole
// pointee may strongly update it. Heap summaries, function objects,
// collapsed field objects and stack objects of recursive functions are
// excluded.
func (g *Graph) IsSingleton(o ir.Obj) bool { return g.singleton.Has(uint32(o)) }

// computeSingletons adopts the auxiliary analysis's shared singleton
// classification (andersen.Result.Singletons), so the SVFG pipeline and
// the CFG-free backend apply an identical strong-update predicate.
func (g *Graph) computeSingletons() {
	g.singleton = g.Aux.Singletons()
}

func (g *Graph) countStats() {
	prog := g.Prog
	g.NumNodes = len(prog.Instrs) - 1 // slot 0 is reserved
	for id := ir.ID(1); int(id) < prog.NumValues(); id++ {
		if prog.IsPointer(id) {
			g.NumTopLevel++
		} else {
			g.NumAddressTaken++
		}
	}
}
