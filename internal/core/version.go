// Package core implements the paper's contribution: versioned staged
// flow-sensitive points-to analysis (VSFS). A fast pre-analysis versions
// every (instruction, object) pair by meld labelling the SVFG — each
// STORE yields a fresh version for the objects it may define ([STORE]^P)
// and each δ node consumes a fresh version ([OTF-CG]^P); versions then
// propagate along object-labelled indirect edges ([EXTERNAL]^V) and from
// consume to yield inside non-store nodes ([INTERNAL]^V). Nodes sharing
// a version of o provably see the same points-to set for o, so the main
// phase keeps one global points-to set per (object, version) instead of
// per-node IN/OUT sets, eliminating SFS's redundant single-object
// propagation and storage while producing identical results.
package core

import (
	"context"
	"slices"
	"time"

	"vsfs/internal/guard"
	"vsfs/internal/ir"
	"vsfs/internal/meld"
	"vsfs/internal/obs"
	"vsfs/internal/svfg"
)

// VersionStats quantifies the pre-analysis. Prelabels, ConsumeEntries
// and YieldEntries describe the fixpoint; the effort counters describe
// the one-pass labelling that reaches it.
type VersionStats struct {
	Prelabels        int           // fresh versions from [STORE]^P and [OTF-CG]^P
	DistinctVersions int           // distinct labels interned (incl. ε)
	MeldOps          int           // external melds that grew a component's pending label
	ConsumeEntries   int           // (node, object) consume slots materialised
	YieldEntries     int           // (node, object) yield slots materialised
	Iterations       int           // value-flow components labelled
	Duration         time.Duration // wall-clock versioning time
}

// versioning holds the C (consume) and Y (yield) functions of Section
// IV-C, indexed by the SVFG's (node, object) slots. A slot is
// materialised once it holds a version other than ε: labelling assigns
// every slot it reaches a non-ε version, so ε stands for "never set".
type versioning struct {
	g *svfg.Graph

	consume []meld.Version // ξ_ℓ(o) by slot
	yield   []meld.Version // η_ℓ(o) by slot

	// first[o] .. first[o+1]-1 are object o's versions. Labelling
	// interns o's labels only during o's pass, and a meld of o's labels
	// is never another object's label, so each object's versions are
	// one id range and the ranges tile 1 .. DistinctVersions-1 in object
	// order. Some ids in a range may be intermediate labels no slot
	// carries.
	first []meld.Version

	stats VersionStats
}

func (v *versioning) consumeOf(l uint32, o ir.Obj) meld.Version {
	if s, ok := v.g.Slot(l, o); ok {
		return v.consume[s]
	}
	return meld.Epsilon
}

func (v *versioning) yieldOf(l uint32, o ir.Obj) meld.Version {
	if s, ok := v.g.Slot(l, o); ok {
		return v.yield[s]
	}
	return meld.Epsilon
}

// versions returns object o's version range; empty for an object
// numbered after labelling ran.
func (v *versioning) versions(o ir.Obj) (lo, hi meld.Version) {
	if int(o)+1 >= len(v.first) {
		return 0, 0
	}
	return v.first[o], v.first[o+1]
}

// countEntries fills the fixpoint-shaped entry counters.
func (v *versioning) countEntries() {
	for s := range v.consume {
		if v.consume[s] != meld.Epsilon {
			v.stats.ConsumeEntries++
		}
		if v.yield[s] != meld.Epsilon {
			v.stats.YieldEntries++
		}
	}
}

// runVersioning performs prelabelling and meld labelling over the SVFG,
// one object at a time, polling ctx periodically so a cancelled request
// aborts the pre-analysis too, not just the main phase.
func runVersioning(ctx context.Context, g *svfg.Graph) (*versioning, error) {
	start := time.Now()
	n := g.Prog.NumObjects()
	v := &versioning{
		g:       g,
		consume: make([]meld.Version, g.NumSlots()),
		yield:   make([]meld.Version, g.NumSlots()),
		first:   make([]meld.Version, n+1),
	}
	lb := newLabeller(g, obs.AttrFrom(ctx))
	for o := range n {
		v.first[o] = meld.Version(lb.tab.Distinct())
		lb.tab.Reset()
		if err := lb.labelObject(ctx, v, ir.Obj(o)); err != nil {
			return nil, err
		}
	}
	v.first[n] = meld.Version(lb.tab.Distinct())
	v.stats.DistinctVersions = lb.tab.Distinct()
	v.countEntries()
	v.stats.Duration = time.Since(start)
	return v, nil
}

// slotKind classifies a slot by its node: a δ node's slot consumes a
// frozen atom ([OTF-CG]^P), a store's slot yields one ([STORE]^P), and
// every other slot is 0.
type slotKind uint8

const (
	deltaSlot slotKind = 1 + iota
	storeSlot
)

// labeller is the scratch state of the labelling pass. Its arrays are
// indexed by slot and never reset: a slot belongs to one object, so no
// object's pass sees another's state.
type labeller struct {
	g *svfg.Graph
	// tab is the label domain, reset before each object's pass: a meld
	// of one object's labels is never another object's label. It dies
	// with the labeller; stats.DistinctVersions keeps the one number the
	// main phase needs, the size of the dense version-id space.
	tab   *meld.Table
	kind  []slotKind
	index []int32 // Tarjan DFS number; 0 = not yet visited
	low   []int32 // Tarjan low-link
	comp  []int32 // component of a finished slot in its object's pass; -1 while on the stack

	counter int32
	stack   []uint32 // Tarjan's slot stack
	frames  []frame  // explicit DFS call stack
	members []uint32 // components' member slots, in completion order
	bounds  []int    // bounds[c] = end of component c in members
	acc     []meld.Version

	// The successors slots gained after the graph was built (none in
	// the paper's configuration, where versioning runs first): row
	// holds one slot's while a loop reads them, gained those of every
	// frame, emptied with each object's pass.
	row, gained []uint32

	// Governance: checkpoints fall every cancelCheckInterval slot
	// visits and charge the steps and the table's growth in bytes since
	// the last one (charged); attr takes one meld charge per MeldOps
	// increment, by the object's value ID.
	attr    *obs.ObjectAttr
	visits  int
	charged int64
}

// frame is one suspended DFS call of the iterative Tarjan.
type frame struct {
	slot  uint32
	base  int      // Tarjan stack height before slot was pushed
	succs []uint32 // the successor slots followed from slot: its static ones,
	added []uint32 // then, once those are done, the ones its graph gained
	next  int
}

func newLabeller(g *svfg.Graph, attr *obs.ObjectAttr) *labeller {
	n := g.NumSlots()
	lb := &labeller{
		g:     g,
		tab:   meld.NewTable(),
		kind:  make([]slotKind, n),
		index: make([]int32, n),
		low:   make([]int32, n),
		comp:  make([]int32, n),
		attr:  attr,
	}
	for l := uint32(1); l < uint32(len(g.Prog.Instrs)); l++ {
		var k slotKind
		switch {
		case g.Delta[l]:
			k = deltaSlot
		case g.Prog.Instrs[l].Op == ir.Store:
			k = storeSlot
		default:
			continue
		}
		lo, hi := g.SlotRange(l)
		for s := lo; s < hi; s++ {
			lb.kind[s] = k
		}
	}
	return lb
}

// poll counts one slot visit and charges the budget every
// cancelCheckInterval visits.
func (lb *labeller) poll(ctx context.Context) error {
	if lb.visits%cancelCheckInterval == 0 {
		grown := lb.tab.Bytes() - lb.charged
		lb.charged += grown
		if err := guard.TickBytes(ctx, "solve", cancelCheckInterval, grown); err != nil {
			return err
		}
	}
	lb.visits++
	return nil
}

// labelObject prelabels and meld labels object o in one topological
// pass. Its value-flow subgraph is the SVFG's o-labelled indirect edges
// with two cuts: a store's out-edges carry its fixed atom and are not
// followed, and edges into δ nodes are dropped (a δ consume is frozen).
// The roots are the δ slots and the non-δ successors of store slots.
// The subgraph is condensed into strongly connected components, and
// each component, in topological order, gets the meld of the store
// atoms and predecessor-component labels flowing into it — computed
// once, from final inputs — as every member's consume and (for
// non-stores) yield. The result is the least fixpoint of [EXTERNAL]^V
// and [INTERNAL]^V.
//
// memssa gives stores and δ nodes only χ, so each of their o-slots is
// a prelabel. o's slots ascend in label order, so atoms are allocated
// in label order.
func (lb *labeller) labelObject(ctx context.Context, v *versioning, o ir.Obj) error {
	g, tab := lb.g, lb.tab
	slots := g.ObjSlots(o)
	for _, s := range slots {
		switch lb.kind[s] {
		case deltaSlot:
			v.consume[s] = tab.NewAtom()
			v.stats.Prelabels++
			if err := lb.strongConnect(ctx, s); err != nil {
				return err
			}
		case storeSlot:
			v.yield[s] = tab.NewAtom()
			v.stats.Prelabels++
			for _, row := range [2][]uint32{g.SlotSuccs(int(s)), lb.gainedOf(s)} {
				for _, t := range row {
					if lb.kind[t] != deltaSlot {
						if err := lb.strongConnect(ctx, t); err != nil {
							return err
						}
					}
				}
			}
		}
	}

	lb.acc = slices.Grow(lb.acc[:0], len(lb.bounds))[:len(lb.bounds)]
	clear(lb.acc)
	for _, s := range slots {
		if lb.kind[s] != storeSlot {
			continue
		}
		for _, row := range [2][]uint32{g.SlotSuccs(int(s)), lb.gainedOf(s)} {
			for _, t := range row {
				if lb.kind[t] != deltaSlot {
					lb.meld(v, o, lb.comp[t], v.yield[s])
				}
			}
		}
	}

	// Tarjan completes components in reverse topological order.
	for c := len(lb.bounds) - 1; c >= 0; c-- {
		start := 0
		if c > 0 {
			start = lb.bounds[c-1]
		}
		members := lb.members[start:lb.bounds[c]]
		label := lb.acc[c]
		if s := members[0]; len(members) == 1 && lb.kind[s] == deltaSlot {
			label = v.consume[s]
		}
		v.stats.Iterations++
		for _, s := range members {
			if err := lb.poll(ctx); err != nil {
				return err
			}
			k := lb.kind[s]
			if k != deltaSlot {
				v.consume[s] = label
			}
			if k == storeSlot {
				continue
			}
			v.yield[s] = label
			for _, row := range [2][]uint32{g.SlotSuccs(int(s)), lb.gainedOf(s)} {
				for _, t := range row {
					if cs := lb.comp[t]; lb.kind[t] != deltaSlot && cs != int32(c) {
						lb.meld(v, o, cs, label)
					}
				}
			}
		}
	}

	lb.members = lb.members[:0]
	lb.bounds = lb.bounds[:0]
	lb.gained = lb.gained[:0]
	return nil
}

// gainedOf returns the successors slot s's graph gained after it was
// built, in lb.row, or nil when it gained none.
func (lb *labeller) gainedOf(s uint32) []uint32 {
	if !lb.g.HasGained(int(s)) {
		return nil
	}
	lb.row = lb.g.AppendGained(lb.row[:0], int(s))
	return lb.row
}

// meld folds label into component c's pending label.
func (lb *labeller) meld(v *versioning, o ir.Obj, c int32, label meld.Version) {
	old := lb.acc[c]
	if m := lb.tab.Meld(old, label); m != old {
		lb.acc[c] = m
		v.stats.MeldOps++
		lb.attr.Meld(uint32(lb.g.Prog.ObjID(o)))
	}
}

// strongConnect runs an iterative Tarjan from slot root (if not yet
// visited), appending each finished component to members and bounds.
// There is no recursion, so a deep value-flow chain cannot grow the
// goroutine stack.
func (lb *labeller) strongConnect(ctx context.Context, root uint32) error {
	if lb.index[root] != 0 {
		return nil
	}
	if err := lb.enter(ctx, root); err != nil {
		return err
	}
	for len(lb.frames) > 0 {
		f := &lb.frames[len(lb.frames)-1]
		if f.next == len(f.succs) && len(f.added) > 0 {
			f.succs, f.added, f.next = f.added, nil, 0
		}
		if f.next < len(f.succs) {
			t := f.succs[f.next]
			f.next++
			switch {
			case lb.kind[t] == deltaSlot:
			case lb.index[t] == 0:
				if err := lb.enter(ctx, t); err != nil {
					return err
				}
			case lb.comp[t] < 0:
				lb.low[f.slot] = min(lb.low[f.slot], lb.index[t])
			}
			continue
		}
		s, base := f.slot, f.base
		lb.frames = lb.frames[:len(lb.frames)-1]
		if len(lb.frames) > 0 {
			p := lb.frames[len(lb.frames)-1].slot
			lb.low[p] = min(lb.low[p], lb.low[s])
		}
		if lb.low[s] != lb.index[s] {
			continue
		}
		c := int32(len(lb.bounds))
		for _, w := range lb.stack[base:] {
			lb.comp[w] = c
		}
		lb.members = append(lb.members, lb.stack[base:]...)
		lb.bounds = append(lb.bounds, len(lb.members))
		lb.stack = lb.stack[:base]
	}
	return nil
}

// enter visits slot s: numbers it, pushes it on the Tarjan stack and
// opens its DFS frame. A store slot's out-edges are not followed: its
// yield is its own atom.
func (lb *labeller) enter(ctx context.Context, s uint32) error {
	if err := lb.poll(ctx); err != nil {
		return err
	}
	lb.counter++
	lb.index[s], lb.low[s], lb.comp[s] = lb.counter, lb.counter, -1
	var succs, added []uint32
	if lb.kind[s] != storeSlot {
		succs = lb.g.SlotSuccs(int(s))
		if lb.g.HasGained(int(s)) {
			// lb.gained only grows during the pass, and when growing
			// moves it, the frames' slices keep the old cells.
			n := len(lb.gained)
			lb.gained = lb.g.AppendGained(lb.gained, int(s))
			added = lb.gained[n:len(lb.gained):len(lb.gained)]
		}
	}
	lb.frames = append(lb.frames, frame{slot: s, base: len(lb.stack), succs: succs, added: added})
	lb.stack = append(lb.stack, s)
	return nil
}

// worklist is FIFO with membership dedup over node labels (used by the
// solving phase). mark is indexed by label.
type worklist struct {
	queue []uint32
	mark  []bool
	hw    int // high-water mark of queued nodes
}

func (w *worklist) push(n uint32) {
	if !w.mark[n] {
		w.mark[n] = true
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
	w.mark[n] = false
	return n, true
}
