// Package core implements the paper's contribution: versioned staged
// flow-sensitive points-to analysis (VSFS). A fast pre-analysis versions
// every (instruction, object) pair by meld labelling the SVFG — each
// STORE yields a fresh version for the objects it may define ([STORE]^P)
// and each δ node consumes a fresh version ([OTF-CG]^P); versions then
// propagate along object-labelled indirect edges ([EXTERNAL]^V) and from
// consume to yield inside non-store nodes ([INTERNAL]^V). Nodes sharing
// a version of o provably see the same points-to set for o, so the main
// phase keeps one global points-to set per (object, version) instead of
// per-node IN/OUT maps, eliminating SFS's redundant single-object
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
// IV-C, per node label.
type versioning struct {
	tab *meld.Table

	consume []map[ir.ID]meld.Version // ξ_ℓ(o)
	yield   []map[ir.ID]meld.Version // η_ℓ(o)

	stats VersionStats
}

func newVersioning(n int, tab *meld.Table) *versioning {
	return &versioning{
		tab:     tab,
		consume: make([]map[ir.ID]meld.Version, n),
		yield:   make([]map[ir.ID]meld.Version, n),
	}
}

func (v *versioning) consumeOf(l uint32, o ir.ID) meld.Version {
	if m := v.consume[l]; m != nil {
		return m[o]
	}
	return meld.Epsilon
}

func (v *versioning) yieldOf(l uint32, o ir.ID) meld.Version {
	if m := v.yield[l]; m != nil {
		return m[o]
	}
	return meld.Epsilon
}

func (v *versioning) setConsume(l uint32, o ir.ID, ver meld.Version) {
	m := v.consume[l]
	if m == nil {
		m = make(map[ir.ID]meld.Version)
		v.consume[l] = m
	}
	m[o] = ver
}

func (v *versioning) setYield(l uint32, o ir.ID, ver meld.Version) {
	m := v.yield[l]
	if m == nil {
		m = make(map[ir.ID]meld.Version)
		v.yield[l] = m
	}
	m[o] = ver
}

// countEntries fills the fixpoint-shaped entry counters.
func (v *versioning) countEntries() {
	for _, m := range v.consume {
		v.stats.ConsumeEntries += len(m)
	}
	for _, m := range v.yield {
		v.stats.YieldEntries += len(m)
	}
}

// prelabel is one [STORE]^P / [OTF-CG]^P seed of an object's meld
// labelling: a store's yield (delta false) or a δ node's consume.
type prelabel struct {
	l     uint32
	delta bool
}

// collectPrelabels scans the SVFG in label order and returns every
// object's prelabels, indexed by object ID, plus the objects that have
// any, ascending.
func collectPrelabels(g *svfg.Graph) ([]ir.ID, [][]prelabel) {
	perObj := make([][]prelabel, g.Prog.NumValues())
	for l := uint32(1); l < uint32(len(g.Prog.Instrs)); l++ {
		isStore := g.Prog.Instrs[l].Op == ir.Store
		if !isStore && !g.Delta[l] {
			continue
		}
		g.MSSA.ChiOf(l).ForEach(func(o uint32) {
			if isStore {
				perObj[o] = append(perObj[o], prelabel{l: l})
			}
			if g.Delta[l] {
				// δ nodes consume a fresh version for each object they
				// may propagate forward (their χ set).
				perObj[o] = append(perObj[o], prelabel{l: l, delta: true})
			}
		})
	}
	var objs []ir.ID
	for o, pre := range perObj {
		if len(pre) > 0 {
			objs = append(objs, ir.ID(o))
		}
	}
	return objs, perObj
}

// runVersioning performs prelabelling and meld labelling over the SVFG,
// one object at a time, polling ctx periodically so a cancelled request
// aborts the pre-analysis too, not just the main phase.
func runVersioning(ctx context.Context, g *svfg.Graph) (*versioning, error) {
	start := time.Now()
	n := len(g.Prog.Instrs)
	v := newVersioning(n, meld.NewTable())
	objs, perObj := collectPrelabels(g)
	lb := newLabeller(n, obs.AttrFrom(ctx))
	for _, o := range objs {
		if err := lb.labelObject(ctx, g, v, o, perObj[o]); err != nil {
			return nil, err
		}
	}
	v.stats.DistinctVersions = v.tab.Distinct()
	v.stats.Meld = v.tab.Stats()
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
	touched []uint32

	counter int32
	hw      int      // Tarjan stack high-water mark for the current object
	stack   []uint32 // Tarjan's node stack
	frames  []frame  // explicit DFS call stack
	members []uint32 // components' members, in completion order
	bounds  []int    // bounds[c] = end of component c in members
	acc     []meld.Version

	// Governance: checkpoints fall every cancelCheckInterval (node,
	// object) visits; attr takes one meld charge per MeldOps increment.
	attr   *obs.ObjectAttr
	visits int
}

// frame is one suspended DFS call of the iterative Tarjan.
type frame struct {
	node  uint32
	base  int // Tarjan stack height before node was pushed
	succs []uint32
	next  int
}

func newLabeller(n int, attr *obs.ObjectAttr) *labeller {
	return &labeller{
		index: make([]int32, n),
		low:   make([]int32, n),
		comp:  make([]int32, n),
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
func (lb *labeller) labelObject(ctx context.Context, g *svfg.Graph, v *versioning, o ir.ID, pre []prelabel) error {
	tab := v.tab
	for _, pe := range pre {
		if pe.delta {
			v.setConsume(pe.l, o, tab.NewAtom())
		} else {
			v.setYield(pe.l, o, tab.NewAtom())
		}
		v.stats.Prelabels++
	}

	for _, pe := range pre {
		if pe.delta {
			if err := lb.strongConnect(ctx, g, o, pe.l); err != nil {
				return err
			}
			continue
		}
		for _, s := range g.IndirSuccs(pe.l, o) {
			if !g.Delta[s] {
				if err := lb.strongConnect(ctx, g, o, s); err != nil {
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
		atom := v.yieldOf(pe.l, o)
		for _, s := range g.IndirSuccs(pe.l, o) {
			if !g.Delta[s] {
				lb.meld(v, o, lb.comp[s], atom)
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
			label = v.consumeOf(n, o)
		}
		v.stats.Iterations++
		for _, n := range members {
			if err := lb.poll(ctx); err != nil {
				return err
			}
			if !g.Delta[n] {
				v.setConsume(n, o, label)
			}
			if g.Prog.Instrs[n].Op == ir.Store {
				continue
			}
			v.setYield(n, o, label)
			for _, s := range g.IndirSuccs(n, o) {
				if cs := lb.comp[s]; !g.Delta[s] && cs != int32(c) {
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
func (lb *labeller) meld(v *versioning, o ir.ID, c int32, label meld.Version) {
	old := lb.acc[c]
	if m := v.tab.Meld(old, label); m != old {
		lb.acc[c] = m
		v.stats.MeldOps++
		lb.attr.Meld(uint32(o))
	}
}

// followed returns the o-labelled out-edges the labelling follows from
// n: none from a store, whose yield is its own atom.
func followed(g *svfg.Graph, n uint32, o ir.ID) []uint32 {
	if g.Prog.Instrs[n].Op == ir.Store {
		return nil
	}
	return g.IndirSuccs(n, o)
}

// strongConnect runs an iterative Tarjan from root (if not yet visited
// for this object), appending each finished component to members and
// bounds. There is no recursion, so a deep value-flow chain cannot grow
// the goroutine stack.
func (lb *labeller) strongConnect(ctx context.Context, g *svfg.Graph, o ir.ID, root uint32) error {
	if lb.index[root] != 0 {
		return nil
	}
	if err := lb.enter(ctx, g, o, root); err != nil {
		return err
	}
	for len(lb.frames) > 0 {
		f := &lb.frames[len(lb.frames)-1]
		if f.next < len(f.succs) {
			w := f.succs[f.next]
			f.next++
			switch {
			case g.Delta[w]:
			case lb.index[w] == 0:
				if err := lb.enter(ctx, g, o, w); err != nil {
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

// enter visits n: numbers it, pushes it on the Tarjan stack and opens
// its DFS frame.
func (lb *labeller) enter(ctx context.Context, g *svfg.Graph, o ir.ID, n uint32) error {
	if err := lb.poll(ctx); err != nil {
		return err
	}
	lb.counter++
	lb.index[n], lb.low[n], lb.comp[n] = lb.counter, lb.counter, -1
	lb.touched = append(lb.touched, n)
	lb.frames = append(lb.frames, frame{node: n, base: len(lb.stack), succs: followed(g, n, o)})
	lb.stack = append(lb.stack, n)
	lb.hw = max(lb.hw, len(lb.stack))
	return nil
}

// worklist is FIFO with membership dedup over node labels (used by the
// solving phase).
type worklist struct {
	queue []uint32
	mark  map[uint32]bool
	hw    int // high-water mark of queued nodes
}

func (w *worklist) push(n uint32) {
	if w.mark == nil {
		w.mark = make(map[uint32]bool)
	}
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
