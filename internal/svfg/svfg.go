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
	"vsfs/internal/graph"
	"vsfs/internal/guard"
	"vsfs/internal/ir"
	"vsfs/internal/memssa"
)

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

	// Every node ℓ has a fixed object domain μ(ℓ)∪χ(ℓ); each (node,
	// object) pair of it is a dense slot, numbered by memory SSA.
	// Immutable, so clones share it.
	memssa.Slots

	// The target slots (ℓ', o) of the indirect edges ℓ --o--> ℓ' out of
	// slot s = (ℓ, o) are static's row s, then the ones gained holds for
	// s: an o-edge joins two o-slots, so the object is implied. static
	// is memory SSA's arena of def-use chains, shared with it and every
	// clone and never written; gained holds the edges this graph gained
	// since, by prewiring or on-the-fly call resolution.
	static graph.CSR
	gained overflow

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
// left to the flow-sensitive solvers (the paper's configuration). The
// graph adopts mssa's slots and successor arena as its indirect edges
// without copying them; the edges it gains go to its own overflow, so
// the arena, and every other graph built from mssa, never sees them.
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
// sub-passes, returning the context or budget error instead of a Graph.
func BuildContext(ctx context.Context, prog *ir.Program, aux *andersen.Result, mssa *memssa.Result) (*Graph, error) {
	return build(ctx, prog, aux, mssa, false)
}

// BuildAuxCallGraph assembles the SVFG with the auxiliary call graph
// wired in up front: every indirect call's interprocedural edges are
// added for all Andersen-resolved targets and no node is a δ node.
// Section IV-C1 of the paper notes store prelabelling alone is
// sufficient in this configuration; it trades the precision (and,
// per the paper, performance) of on-the-fly resolution for a simpler
// pre-analysis. Kept as an ablation. Like Build it shares mssa's
// arena; the prewired edges land in its own overflow.
func BuildAuxCallGraph(prog *ir.Program, aux *andersen.Result, mssa *memssa.Result) *Graph {
	g, err := build(context.Background(), prog, aux, mssa, true)
	if err != nil {
		panic(err) // unreachable, as in Build
	}
	return g
}

func build(ctx context.Context, prog *ir.Program, aux *andersen.Result, mssa *memssa.Result, prewire bool) (*Graph, error) {
	g := &Graph{
		Prog:     prog,
		Aux:      aux,
		MSSA:     mssa,
		Slots:    mssa.Slots,
		static:   mssa.Succs,
		Prewired: prewire,
		DefSite:  make([]uint32, prog.NumValues()),
		users:    make([][]uint32, prog.NumValues()),
		Delta:    make([]bool, len(prog.Instrs)),
	}
	g.NumIndirectEdges = len(g.static.Adj)
	// The poll after prewiring charges the overflow it grew.
	var charged int64
	for _, pass := range []func(){g.buildDirect, g.prewireIndirectCalls, g.markDelta, g.computeSingletons, g.countStats} {
		grown := g.OverflowBytes() - charged
		charged += grown
		if err := guard.TickBytes(ctx, "svfg", 0, grown); err != nil {
			return nil, err
		}
		pass()
	}
	return g, nil
}

// prewireIndirectCalls adds the interprocedural value-flow edges of
// every auxiliary-resolved indirect call at build time, if Prewired.
func (g *Graph) prewireIndirectCalls() {
	if !g.Prewired {
		return
	}
	for _, f := range g.Prog.Funcs {
		f.ForEachInstr(func(in *ir.Instr) {
			if in.Op != ir.Call || !in.IsIndirectCall() {
				return
			}
			for _, callee := range g.Aux.CalleesOf(in) {
				g.AddCallEdges(in, callee, nil)
			}
		})
	}
}

// Clone returns a copy of the graph that can be mutated independently.
// The flow-sensitive solvers add indirect edges during on-the-fly
// call-graph resolution, so running two solvers over one Graph value
// would let the first leak resolution work into the second; clone per
// solver instead. Immutable parts (direct edges, slots and the object
// index, the static successor arena, δ marks, singletons) are shared;
// only the overflow of gained edges is copied.
func (g *Graph) Clone() *Graph {
	c := *g
	c.gained = g.gained.clone()
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
// new. Both endpoints must carry obj in μ∪χ; an edge outside the slot
// domain is a construction bug and panics. It builds graphs by hand, a
// few edges at a time: it scans the slot's successors for the edge, and
// AddCallEdges does not see the edges it adds.
func (g *Graph) AddIndirectEdge(from, to uint32, obj ir.Obj) bool {
	s, ok := g.Slot(from, obj)
	if !ok {
		g.outsideDomain(from, to, obj, from)
	}
	t, ok := g.Slot(to, obj)
	if !ok {
		g.outsideDomain(from, to, obj, to)
	}
	if slices.Contains(g.SlotSuccs(s), uint32(t)) || slices.Contains(g.AppendGained(nil, s), uint32(t)) {
		return false
	}
	g.gained.put(g.openBatch(from), s, uint32(t))
	g.NumIndirectEdges++
	return true
}

// AddCallEdges adds the indirect edges of call reaching callee, the
// chains memssa.Result.CallChains lists, and calls added(s, t), if not
// nil, for each edge from slot s to slot t, in that order. It adds none
// when the graph has them already: memory SSA linked a direct call's,
// and the graph remembers each (call, callee) pair it wired, so a pair
// costs one lookup however many edges it has. The flow-sensitive
// solvers call it during on-the-fly call-graph resolution.
func (g *Graph) AddCallEdges(call *ir.Instr, callee *ir.Function, added func(s, t int)) {
	if call.Callee == callee || !g.gained.wired.Add(call.Label, callee.EntryInstr.Label) {
		return
	}
	// The chains come grouped by source node: the call's, then the
	// callee's FUNEXIT's. Each group is one batch.
	node, b := uint32(0), int32(-1)
	g.MSSA.CallChains(call, callee, func(s, t int) {
		if n := g.SlotNode(s); b < 0 || n != node {
			node, b = n, g.openBatch(n)
		}
		g.gained.put(b, s, uint32(t))
		g.NumIndirectEdges++
		if added != nil {
			added(s, t)
		}
	})
}

func (g *Graph) outsideDomain(from, to uint32, obj ir.Obj, at uint32) {
	name := g.Prog.ObjValue(obj).Name
	panic(fmt.Sprintf("svfg: indirect edge ℓ%d --%s--> ℓ%d: object %s (#%d) is not in μ∪χ of ℓ%d",
		from, name, to, name, obj, at))
}

// SlotSuccs returns the target slots of memory SSA's indirect edges
// out of slot s = (ℓ, o), each a slot of o: one slice of the shared
// arena, which must not be mutated (appending to it copies it). The
// edges the graph gained after it was built follow them, in
// AppendGained.
func (g *Graph) SlotSuccs(s int) []uint32 { return g.static.Row(uint32(s)) }

// HasGained reports whether slot s gained indirect edges after the
// graph was built; few slots do. It is cheap enough for a solve loop to
// ask before it calls AppendGained.
func (g *Graph) HasGained(s int) bool {
	return len(g.gained.first) > 0 && g.gained.first[g.SlotNode(s)] != 0
}

// AppendGained appends to dst the target slots of the indirect edges
// slot s gained after the graph was built, in the order gained, and
// returns the extended slice.
func (g *Graph) AppendGained(dst []uint32, s int) []uint32 {
	x := &g.gained
	if len(x.first) == 0 {
		return dst
	}
	for b := x.first[g.SlotNode(s)] - 1; b >= 0; b = x.batches[b].next {
		bt := x.batches[b]
		if t := x.chunks[bt.chunk][bt.off+uint32(s)-bt.lo]; t != 0 {
			dst = append(dst, t-1)
		}
	}
	return dst
}

// IndirSuccs returns the target nodes of indirect edges from ℓ labelled
// with obj, in insertion order, as a fresh slice.
func (g *Graph) IndirSuccs(from uint32, obj ir.Obj) []uint32 {
	s, ok := g.Slot(from, obj)
	if !ok {
		return nil
	}
	succs := g.AppendGained(slices.Clone(g.SlotSuccs(s)), s)
	for i, t := range succs {
		succs[i] = g.SlotNode(int(t))
	}
	return succs
}

// OverflowBytes returns the storage of the edges the graph gained. The
// solvers that add them charge its growth to the request's budget.
func (g *Graph) OverflowBytes() int64 { return g.gained.bytes() }

// overflow holds the indirect edges a graph gains, in flat arrays, as
// batches: a batch is edges out of one node ℓ, at most one per slot of
// ℓ, such as a call's chains into one callee. It has a cell for each of
// ℓ's slots, holding its target slot plus one, or 0 for none, so a
// slot's gained targets are its cell in each of ℓ's batches, in order.
// Calls wire their objects almost all at once, so the cells are nearly
// all full. Cells live in fixed-size chunks that are never copied.
type overflow struct {
	// first[ℓ] is 1 + node ℓ's first batch, 0 for none.
	first   []int32
	batches []batch
	chunks  [][]uint32
	// wired holds the (call, callee entry) label pairs AddCallEdges
	// has wired.
	wired graph.PairSet
}

// batch b's cells are chunks[chunk][off:], one per slot from lo, its
// node's first.
type batch struct {
	chunk, off, lo uint32
	next           int32 // the node's next batch; -1 after its last
}

// chunkCells is the size of an overflow chunk; a larger batch gets a
// chunk of its own.
const chunkCells = 1 << 13

// openBatch opens an empty batch out of node l, after l's others, and
// returns it.
func (g *Graph) openBatch(l uint32) int32 {
	x := &g.gained
	lo, hi := g.SlotRange(l)
	b := int32(len(x.batches))
	chunk, off := x.cells(uint32(hi - lo))
	x.batches = append(x.batches, batch{chunk: chunk, off: off, lo: uint32(lo), next: -1})
	if x.first == nil {
		x.first = make([]int32, len(g.Prog.Instrs))
	}
	if f := x.first[l]; f != 0 {
		last := f - 1
		for x.batches[last].next >= 0 {
			last = x.batches[last].next
		}
		x.batches[last].next = b
		return b
	}
	x.first[l] = b + 1
	return b
}

// put records in batch b, out of slot s's node, the edge to slot t.
func (x *overflow) put(b int32, s int, t uint32) {
	bt := x.batches[b]
	x.chunks[bt.chunk][bt.off+uint32(s)-bt.lo] = t + 1
}

// cells takes n zeroed cells: after the last chunk's used ones if they
// fit, else from a new chunk, which the last one's length marks used.
func (x *overflow) cells(n uint32) (chunk, off uint32) {
	if k := len(x.chunks) - 1; k >= 0 {
		last := x.chunks[k]
		if used := uint32(len(last)); used+n <= uint32(cap(last)) {
			x.chunks[k] = last[:used+n]
			return uint32(k), used
		}
	}
	x.chunks = append(x.chunks, make([]uint32, n, max(n, chunkCells)))
	return uint32(len(x.chunks) - 1), 0
}

func (x *overflow) clone() overflow {
	c := overflow{
		first:   slices.Clone(x.first),
		batches: slices.Clone(x.batches),
		chunks:  make([][]uint32, len(x.chunks)),
		wired:   x.wired.Clone(),
	}
	for k, cells := range x.chunks {
		c.chunks[k] = slices.Clip(slices.Clone(cells))
	}
	return c
}

// bytes returns the overflow's storage.
func (x *overflow) bytes() int64 {
	n := 4*int64(len(x.first)) + 16*int64(len(x.batches)) + x.wired.Bytes()
	for _, cells := range x.chunks {
		n += 4 * int64(cap(cells))
	}
	return n
}

// markDelta marks δ nodes: FUNENTRY of address-taken functions (possible
// indirect-call targets) and the CallRet side of indirect calls (return
// targets of indirect calls), unless Prewired.
func (g *Graph) markDelta() {
	if g.Prewired {
		return
	}
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
