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
	Prelabels        int // fresh versions from [STORE]^P and [OTF-CG]^P
	DistinctVersions int // distinct labels interned (incl. ε)
	MeldOps          int // external melds that grew a component's pending label
	ConsumeEntries   int // (node, object) consume slots materialised
	YieldEntries     int // (node, object) yield slots materialised
	Iterations       int // value-flow components labelled
	WorklistHW       int // Tarjan stack high-water mark over all objects
	Meld             meld.TableStats
	Duration         time.Duration // wall-clock versioning time
}

// versioning holds the C (consume) and Y (yield) functions of Section
// IV-C, indexed by the SVFG's (node, object) slots. A slot is
// materialised once it holds a version other than ε: labelling assigns
// every slot it reaches a non-ε version, so ε stands for "never set".
type versioning struct {
	g *svfg.Graph
	// tab is the label domain while labelling runs. runVersioning drops
	// it at the end: its atom sets and pair cache have no later reader,
	// and stats.DistinctVersions keeps the one number the main phase
	// needs, the size of the dense version-id space.
	tab *meld.Table

	consume []meld.Version // ξ_ℓ(o) by slot
	yield   []meld.Version // η_ℓ(o) by slot

	stats VersionStats
}

func newVersioning(g *svfg.Graph, tab *meld.Table) *versioning {
	return &versioning{
		g:       g,
		tab:     tab,
		consume: make([]meld.Version, g.NumSlots()),
		yield:   make([]meld.Version, g.NumSlots()),
	}
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

// prelabel is one [STORE]^P / [OTF-CG]^P seed of an object's meld
// labelling: a store's yield (delta false) or a δ node's consume, at
// slot (l, o).
type prelabel struct {
	l     uint32
	slot  int
	delta bool
}

// collectPrelabels scans the SVFG in label order and returns every
// object's prelabels, indexed by object number, plus the objects that
// have any, ascending.
func collectPrelabels(g *svfg.Graph) ([]ir.Obj, [][]prelabel) {
	perObj := make([][]prelabel, g.Prog.NumObjects())
	for l := uint32(1); l < uint32(len(g.Prog.Instrs)); l++ {
		isStore := g.Prog.Instrs[l].Op == ir.Store
		if !isStore && !g.Delta[l] {
			continue
		}
		g.MSSA.ChiOf(l).ForEach(func(o uint32) {
			s, _ := g.Slot(l, ir.Obj(o))
			if isStore {
				perObj[o] = append(perObj[o], prelabel{l: l, slot: s})
			}
			if g.Delta[l] {
				// δ nodes consume a fresh version for each object they
				// may propagate forward (their χ set).
				perObj[o] = append(perObj[o], prelabel{l: l, slot: s, delta: true})
			}
		})
	}
	var objs []ir.Obj
	for o, pre := range perObj {
		if len(pre) > 0 {
			objs = append(objs, ir.Obj(o))
		}
	}
	return objs, perObj
}

// runVersioning performs prelabelling and meld labelling over the SVFG,
// one object at a time, polling ctx periodically so a cancelled request
// aborts the pre-analysis too, not just the main phase.
func runVersioning(ctx context.Context, g *svfg.Graph) (*versioning, error) {
	start := time.Now()
	v := newVersioning(g, meld.NewTable())
	objs, perObj := collectPrelabels(g)
	lb := newLabeller(g.Prog, obs.AttrFrom(ctx))
	for _, o := range objs {
		if err := lb.labelObject(ctx, g, v, o, perObj[o]); err != nil {
			return nil, err
		}
	}
	v.stats.DistinctVersions = v.tab.Distinct()
	v.stats.Meld = v.tab.Stats()
	v.tab = nil
	v.countEntries()
	v.stats.Duration = time.Since(start)
	return v, nil
}

// labeller is the scratch state of the per-object labelling pass. Its
// per-node arrays are indexed by label and reset after every object
// through touched, so one labeller serves any number of objects.
type labeller struct {
	index   []int32 // Tarjan DFS number + 1; 0 = not visited for this object
	low     []int32 // Tarjan low-link
	comp    []int32 // component of a finished node; -1 while on the stack
	slot    []int   // the visited node's slot for the current object
	touched []uint32

	counter int32
	hw      int      // Tarjan stack high-water mark for the current object
	stack   []uint32 // Tarjan's node stack
	frames  []frame  // explicit DFS call stack
	members []uint32 // components' members, in completion order
	bounds  []int    // bounds[c] = end of component c in members
	acc     []meld.Version

	// Governance: checkpoints fall every cancelCheckInterval (node,
	// object) visits; attr takes one meld charge per MeldOps increment,
	// by the object's value ID.
	prog   *ir.Program
	attr   *obs.ObjectAttr
	visits int
}

// frame is one suspended DFS call of the iterative Tarjan.
type frame struct {
	node  uint32
	base  int      // Tarjan stack height before node was pushed
	succs []uint32 // the successor slots followed from node
	next  int
}

func newLabeller(prog *ir.Program, attr *obs.ObjectAttr) *labeller {
	n := len(prog.Instrs)
	return &labeller{
		index: make([]int32, n),
		low:   make([]int32, n),
		comp:  make([]int32, n),
		slot:  make([]int, n),
		prog:  prog,
		attr:  attr,
	}
}

// poll counts one (node, object) visit and charges the budget every
// cancelCheckInterval visits.
func (lb *labeller) poll(ctx context.Context) error {
	if lb.visits%cancelCheckInterval == 0 {
		if err := guard.Tick(ctx, "solve", cancelCheckInterval); err != nil {
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
// The roots are the δ nodes and the non-δ successors of stores. The
// subgraph is condensed into strongly connected components, and each
// component, in topological order, gets the meld of the store atoms and
// predecessor-component labels flowing into it — computed once, from
// final inputs — as every member's consume and (for non-stores) yield.
// The result is the least fixpoint of [EXTERNAL]^V and [INTERNAL]^V.
func (lb *labeller) labelObject(ctx context.Context, g *svfg.Graph, v *versioning, o ir.Obj, pre []prelabel) error {
	tab := v.tab
	for _, pe := range pre {
		if pe.delta {
			v.consume[pe.slot] = tab.NewAtom()
		} else {
			v.yield[pe.slot] = tab.NewAtom()
		}
		v.stats.Prelabels++
	}

	for _, pe := range pre {
		if pe.delta {
			if err := lb.strongConnect(ctx, g, pe.l, pe.slot); err != nil {
				return err
			}
			continue
		}
		for _, t := range g.SlotSuccs(pe.slot) {
			if n := g.SlotNode(int(t)); !g.Delta[n] {
				if err := lb.strongConnect(ctx, g, n, int(t)); err != nil {
					return err
				}
			}
		}
	}

	lb.acc = slices.Grow(lb.acc[:0], len(lb.bounds))[:len(lb.bounds)]
	clear(lb.acc)
	for _, pe := range pre {
		if pe.delta {
			continue
		}
		atom := v.yield[pe.slot]
		for _, t := range g.SlotSuccs(pe.slot) {
			if n := g.SlotNode(int(t)); !g.Delta[n] {
				lb.meld(v, o, lb.comp[n], atom)
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
		if n := members[0]; len(members) == 1 && g.Delta[n] {
			label = v.consume[lb.slot[n]]
		}
		v.stats.Iterations++
		for _, n := range members {
			if err := lb.poll(ctx); err != nil {
				return err
			}
			sl := lb.slot[n]
			if !g.Delta[n] {
				v.consume[sl] = label
			}
			if g.Prog.Instrs[n].Op == ir.Store {
				continue
			}
			v.yield[sl] = label
			for _, t := range g.SlotSuccs(sl) {
				w := g.SlotNode(int(t))
				if cs := lb.comp[w]; !g.Delta[w] && cs != int32(c) {
					lb.meld(v, o, cs, label)
				}
			}
		}
	}

	v.stats.WorklistHW = max(v.stats.WorklistHW, lb.hw)
	for _, n := range lb.touched {
		lb.index[n] = 0
	}
	lb.touched = lb.touched[:0]
	lb.members = lb.members[:0]
	lb.bounds = lb.bounds[:0]
	lb.counter, lb.hw = 0, 0
	return nil
}

// meld folds label into component c's pending label.
func (lb *labeller) meld(v *versioning, o ir.Obj, c int32, label meld.Version) {
	old := lb.acc[c]
	if m := v.tab.Meld(old, label); m != old {
		lb.acc[c] = m
		v.stats.MeldOps++
		lb.attr.Meld(uint32(lb.prog.ObjID(o)))
	}
}

// followed returns the out-edges of slot sl = (n, o) the labelling
// follows: none from a store, whose yield is its own atom.
func followed(g *svfg.Graph, n uint32, sl int) []uint32 {
	if g.Prog.Instrs[n].Op == ir.Store {
		return nil
	}
	return g.SlotSuccs(sl)
}

// strongConnect runs an iterative Tarjan from root, whose slot for the
// current object is sl (if not yet visited for this object), appending
// each finished component to members and bounds. There is no recursion,
// so a deep value-flow chain cannot grow the goroutine stack.
func (lb *labeller) strongConnect(ctx context.Context, g *svfg.Graph, root uint32, sl int) error {
	if lb.index[root] != 0 {
		return nil
	}
	if err := lb.enter(ctx, g, root, sl); err != nil {
		return err
	}
	for len(lb.frames) > 0 {
		f := &lb.frames[len(lb.frames)-1]
		if f.next < len(f.succs) {
			t := int(f.succs[f.next])
			w := g.SlotNode(t)
			f.next++
			switch {
			case g.Delta[w]:
			case lb.index[w] == 0:
				if err := lb.enter(ctx, g, w, t); err != nil {
					return err
				}
			case lb.comp[w] < 0:
				lb.low[f.node] = min(lb.low[f.node], lb.index[w])
			}
			continue
		}
		n, base := f.node, f.base
		lb.frames = lb.frames[:len(lb.frames)-1]
		if len(lb.frames) > 0 {
			p := lb.frames[len(lb.frames)-1].node
			lb.low[p] = min(lb.low[p], lb.low[n])
		}
		if lb.low[n] != lb.index[n] {
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

// enter visits n through its slot sl for the current object: numbers
// it, pushes it on the Tarjan stack and opens its DFS frame.
func (lb *labeller) enter(ctx context.Context, g *svfg.Graph, n uint32, sl int) error {
	if err := lb.poll(ctx); err != nil {
		return err
	}
	lb.counter++
	lb.index[n], lb.low[n], lb.comp[n] = lb.counter, lb.counter, -1
	lb.slot[n] = sl
	lb.touched = append(lb.touched, n)
	lb.frames = append(lb.frames, frame{node: n, base: len(lb.stack), succs: followed(g, n, sl)})
	lb.stack = append(lb.stack, n)
	lb.hw = max(lb.hw, len(lb.stack))
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
