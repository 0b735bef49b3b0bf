// Package memssa builds the memory SSA form over address-taken objects:
// it computes transitive mod/ref summaries from the auxiliary analysis,
// annotates instructions with χ (may-define) and μ (may-use) sets,
// inserts MEMPHI instructions at iterated dominance frontiers, numbers
// every (node, object) pair into a slot, and then renames per-object
// definitions along the dominator tree, linking the indirect def-use
// chains slot to slot; the SVFG adopts them as its indirect edges.
package memssa

import (
	"context"
	"slices"

	"vsfs/internal/andersen"
	"vsfs/internal/bitset"
	"vsfs/internal/cfg"
	"vsfs/internal/guard"
	"vsfs/internal/ir"
)

// cancelCheckInterval is how many mod/ref fixpoint iterations, or
// def-use chains linked, pass between context/budget polls.
const cancelCheckInterval = 1024

// Result is the memory SSA form of a program.
type Result struct {
	Prog *ir.Program
	Aux  *andersen.Result

	// Mu and Chi are label-indexed: the objects an instruction may use
	// and may define. Like every object set here, they hold object
	// numbers. Loads μ their pointees; stores χ their pointees; call
	// sites μ the callees' FormalIn and χ their FormalOut; FUNENTRY χ's
	// FormalIn; FUNEXIT μ's FormalOut; a MEMPHI χ's its object. Equal
	// sets are one shared set, so none may be mutated.
	Mu  []*bitset.Sparse
	Chi []*bitset.Sparse

	// FormalIn(f) = ref*(f) ∪ mod*(f): objects whose definitions flow
	// into f at its entry. FormalOut(f) = mod*(f): objects whose
	// definitions flow back to callers at its exit.
	FormalIn  map[*ir.Function]*bitset.Sparse
	FormalOut map[*ir.Function]*bitset.Sparse

	// Slots numbers every node's μ∪χ into (node, object) slots.
	Slots

	// Succs[s] lists, in visit order, the slots whose definition or use
	// of o the definition at slot s = (ℓ, o) reaches: a use (μ), the
	// previous-version operand of a χ, or a MEMPHI operand. An o-chain
	// joins two o-slots, so the object is implied. These are the
	// intraprocedural indirect def-use chains plus the interprocedural
	// chains of direct calls; chains for indirect calls are added during
	// flow-sensitive solving (on-the-fly call graph). svfg.Build adopts
	// the lists, and from then on the graph owns them.
	Succs [][]uint32

	// MemPhis lists the inserted MEMPHI instructions.
	MemPhis []*ir.Instr

	// CallRets maps each CALL instruction to its companion CallRet node
	// (SVF's ActualOUT), present when the call may modify objects.
	CallRets map[*ir.Instr]*ir.Instr
}

// MuOf returns μ(ℓ); never nil.
func (r *Result) MuOf(label uint32) *bitset.Sparse {
	if s := r.Mu[label]; s != nil {
		return s
	}
	return empty
}

// ChiOf returns χ(ℓ); never nil.
func (r *Result) ChiOf(label uint32) *bitset.Sparse {
	if s := r.Chi[label]; s != nil {
		return s
	}
	return empty
}

var empty = bitset.New()

// Slots numbers every node ℓ's fixed object domain μ(ℓ)∪χ(ℓ),
// ascending, into dense (node, object) slots. ℓ's slots are
// start[ℓ] .. start[ℓ+1]-1; obj[s] and node[s] are slot s's object and
// node. objSlots[objStart[o]:objStart[o+1]] lists object o's slots,
// ascending. Immutable once numbered, so every graph built from one
// Result shares it.
type Slots struct {
	start    []int
	obj      []ir.Obj
	node     []uint32
	objStart []int
	objSlots []uint32
}

// NumberSlots numbers the slots of the current μ/χ annotation and gives
// each an empty successor list. BuildContext calls it once the
// annotation is final; a hand-annotated Result calls it before a graph
// is built from it.
func (r *Result) NumberSlots() {
	n := len(r.Prog.Instrs)
	size := 0
	for l := range n {
		size += r.MuOf(uint32(l)).Len() + r.ChiOf(uint32(l)).Len()
	}
	sl := Slots{
		start: make([]int, n+1),
		obj:   make([]ir.Obj, 0, size),
		node:  make([]uint32, 0, size),
	}
	for l := range n {
		sl.start[l] = len(sl.obj)
		dom := r.MuOf(uint32(l))
		if chi := r.ChiOf(uint32(l)); dom.IsEmpty() {
			dom = chi
		} else if !chi.IsEmpty() {
			dom = dom.Clone()
			dom.UnionWith(chi)
		}
		dom.ForEach(func(o uint32) {
			sl.obj = append(sl.obj, ir.Obj(o))
			sl.node = append(sl.node, uint32(l))
		})
	}
	sl.start[n] = len(sl.obj)

	// Counting sort by object; slots are visited ascending, so each
	// object's list comes out ascending too.
	sl.objStart = make([]int, r.Prog.NumObjects()+1)
	for _, o := range sl.obj {
		sl.objStart[o+1]++
	}
	for o := range r.Prog.NumObjects() {
		sl.objStart[o+1] += sl.objStart[o]
	}
	next := slices.Clone(sl.objStart[:len(sl.objStart)-1])
	sl.objSlots = make([]uint32, len(sl.obj))
	for s, o := range sl.obj {
		sl.objSlots[next[o]] = uint32(s)
		next[o]++
	}
	r.Slots = sl
	r.Succs = make([][]uint32, len(sl.obj))
}

// Slot returns the slot of (ℓ, o), and false if o is not in μ(ℓ)∪χ(ℓ).
func (sl *Slots) Slot(l uint32, o ir.Obj) (int, bool) {
	lo, hi := sl.SlotRange(l)
	i, ok := slices.BinarySearch(sl.obj[lo:hi], o)
	return lo + i, ok
}

// SlotRange returns ℓ's slots: lo .. hi-1, ordered by object.
func (sl *Slots) SlotRange(l uint32) (lo, hi int) {
	return sl.start[l], sl.start[l+1]
}

// NumSlots returns the number of (node, object) slots.
func (sl *Slots) NumSlots() int { return len(sl.obj) }

// SlotObj returns slot s's object.
func (sl *Slots) SlotObj(s int) ir.Obj { return sl.obj[s] }

// SlotNode returns slot s's node.
func (sl *Slots) SlotNode(s int) uint32 { return sl.node[s] }

// ObjSlots returns object o's slots, ascending; none for an object
// numbered after the slots were. The result must not be mutated.
func (sl *Slots) ObjSlots(o ir.Obj) []uint32 {
	if int(o)+1 >= len(sl.objStart) {
		return nil
	}
	return sl.objSlots[sl.objStart[o]:sl.objStart[o+1]]
}

// Build constructs the memory SSA form. It inserts MEMPHI instructions
// into prog's blocks and renumbers instruction labels.
func Build(prog *ir.Program, aux *andersen.Result) *Result {
	res, err := BuildContext(context.Background(), prog, aux)
	if err != nil {
		// Unreachable: a background context carries no deadline, budget
		// or fault plan, so construction cannot be interrupted.
		panic(err)
	}
	return res
}

// BuildContext is Build with cooperative cancellation: construction
// polls ctx (and any guard budget or fault plan attached to it) between
// passes and periodically inside the mod/ref fixpoint and while linking
// def-use chains, returning the context or budget error instead of a
// Result.
func BuildContext(ctx context.Context, prog *ir.Program, aux *andersen.Result) (*Result, error) {
	b := &builder{
		ctx:  ctx,
		prog: prog,
		aux:  aux,
		res: &Result{
			Prog:      prog,
			Aux:       aux,
			FormalIn:  make(map[*ir.Function]*bitset.Sparse),
			FormalOut: make(map[*ir.Function]*bitset.Sparse),
			CallRets:  make(map[*ir.Instr]*ir.Instr),
		},
	}
	for _, pass := range []func() error{
		func() error { b.normalizeEntries(); return nil },
		b.modRef,
		func() error { b.insertCallRets(); return nil },
		func() error { b.placeMemPhis(); return nil },
		func() error { prog.Renumber(); return nil },
		func() error { b.annotate(); b.res.NumberSlots(); return nil },
		b.rename,
		b.interprocDirectCalls,
	} {
		if err := b.tick(0); err != nil {
			return nil, err
		}
		if err := pass(); err != nil {
			return nil, err
		}
	}
	return b.res, nil
}

type builder struct {
	ctx  context.Context
	prog *ir.Program
	aux  *andersen.Result
	res  *Result

	mod map[*ir.Function]*bitset.Sparse
	ref map[*ir.Function]*bitset.Sparse

	chains int   // successors linked so far
	err    error // the first failed poll while linking
}

func (b *builder) tick(n int64) error {
	return guard.Tick(b.ctx, "memssa", n)
}

// normalizeEntries guarantees no entry block has CFG predecessors, so
// MEMPHI placement never competes with FUNENTRY. A fresh entry block is
// spliced in front when needed.
func (b *builder) normalizeEntries() {
	for _, f := range b.prog.Funcs {
		old := f.Entry
		if len(old.Preds) == 0 {
			continue
		}
		ne := &ir.Block{Name: old.Name + ".pre", Parent: f}
		// Move FUNENTRY into the new block.
		if len(old.Instrs) > 0 && old.Instrs[0] == f.EntryInstr {
			old.Instrs = old.Instrs[1:]
		}
		f.EntryInstr.Block = ne
		ne.Instrs = []*ir.Instr{f.EntryInstr}
		ne.AddSucc(old)
		f.Entry = ne
		f.Blocks = append([]*ir.Block{ne}, f.Blocks...)
		for i, blk := range f.Blocks {
			blk.Index = i
		}
	}
}

// modRef computes transitive mod/ref summaries over the auxiliary call
// graph with a worklist fixpoint.
func (b *builder) modRef() error {
	b.mod = make(map[*ir.Function]*bitset.Sparse)
	b.ref = make(map[*ir.Function]*bitset.Sparse)
	callers := make(map[*ir.Function][]*ir.Function)

	for _, f := range b.prog.Funcs {
		b.mod[f] = bitset.New()
		b.ref[f] = bitset.New()
	}
	for _, f := range b.prog.Funcs {
		f.ForEachInstr(func(in *ir.Instr) {
			switch in.Op {
			case ir.Store:
				b.mod[f].UnionWith(b.aux.PointsTo(in.Uses[0]))
			case ir.Load:
				b.ref[f].UnionWith(b.aux.PointsTo(in.Uses[0]))
			case ir.Call:
				for _, callee := range b.aux.CalleesOf(in) {
					callers[callee] = append(callers[callee], f)
				}
			}
		})
	}

	work := append([]*ir.Function(nil), b.prog.Funcs...)
	inWork := make(map[*ir.Function]bool, len(work))
	for _, f := range work {
		inWork[f] = true
	}
	for steps := 0; len(work) > 0; steps++ {
		if steps%cancelCheckInterval == 0 && steps > 0 {
			if err := b.tick(cancelCheckInterval); err != nil {
				return err
			}
		}
		g := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[g] = false
		for _, f := range callers[g] {
			changed := b.mod[f].UnionWith(b.mod[g])
			if b.ref[f].UnionWith(b.ref[g]) {
				changed = true
			}
			if changed && !inWork[f] {
				inWork[f] = true
				work = append(work, f)
			}
		}
	}

	for _, f := range b.prog.Funcs {
		fin := b.ref[f].Clone()
		fin.UnionWith(b.mod[f])
		b.res.FormalIn[f] = fin
		b.res.FormalOut[f] = b.mod[f].Clone()
	}
	return nil
}

// insertCallRets gives every call that may modify objects (per the
// auxiliary analysis) a companion CallRet node placed right after it, so
// returned definitions merge after the call rather than into the values
// sent to the callee.
func (b *builder) insertCallRets() {
	for _, f := range b.prog.Funcs {
		for _, blk := range f.Blocks {
			out := make([]*ir.Instr, 0, len(blk.Instrs))
			for _, in := range blk.Instrs {
				out = append(out, in)
				if in.Op != ir.Call {
					continue
				}
				chi := bitset.New()
				for _, callee := range b.aux.CalleesOf(in) {
					chi.UnionWith(b.res.FormalOut[callee])
				}
				if chi.IsEmpty() {
					continue
				}
				ret := &ir.Instr{Op: ir.CallRet, CallSite: in, Block: blk, Parent: f}
				b.res.CallRets[in] = ret
				out = append(out, ret)
			}
			blk.Instrs = out
		}
	}
}

// calleeSet unions a per-callee set over a call's auxiliary targets.
func (b *builder) calleeSet(call *ir.Instr, of map[*ir.Function]*bitset.Sparse) *bitset.Sparse {
	out := bitset.New()
	for _, callee := range b.aux.CalleesOf(call) {
		out.UnionWith(of[callee])
	}
	return out
}

// chiObjectsAt returns the χ set an instruction will receive, before
// MEMPHI insertion (used for phi placement).
func (b *builder) chiObjectsAt(in *ir.Instr) *bitset.Sparse {
	switch in.Op {
	case ir.Store:
		return b.aux.PointsTo(in.Uses[0])
	case ir.CallRet:
		return b.calleeSet(in.CallSite, b.res.FormalOut)
	case ir.FunEntry:
		return b.res.FormalIn[in.Parent]
	}
	return empty
}

// placeMemPhis inserts MEMPHI instructions at the iterated dominance
// frontier of each object's χ blocks.
func (b *builder) placeMemPhis() {
	// defBlocks[o] lists the blocks of the current function holding a χ
	// for o, and defined holds the objects with any. Placement empties
	// each list again, so the table serves every function.
	defBlocks := make([][]*ir.Block, b.prog.NumObjects())
	for _, f := range b.prog.Funcs {
		info := cfg.Compute(f)
		defined := bitset.New()

		f.ForEachInstr(func(in *ir.Instr) {
			if !info.Reachable(in.Block) {
				return
			}
			chi := b.chiObjectsAt(in)
			defined.UnionWith(chi)
			chi.ForEach(func(o uint32) {
				blks := defBlocks[o]
				if len(blks) == 0 || blks[len(blks)-1] != in.Block {
					defBlocks[o] = append(blks, in.Block)
				}
			})
		})

		// Objects in ascending order, for a deterministic placement.
		phiAt := make(map[*ir.Block][]*ir.Instr)
		defined.ForEach(func(o32 uint32) {
			o := ir.Obj(o32)
			placed := make(map[*ir.Block]bool)
			work := defBlocks[o]
			defBlocks[o] = nil
			for len(work) > 0 {
				blk := work[len(work)-1]
				work = work[:len(work)-1]
				for _, df := range info.Frontier(blk) {
					if placed[df] {
						continue
					}
					placed[df] = true
					phi := &ir.Instr{Op: ir.MemPhi, Obj: b.prog.ObjID(o), Block: df, Parent: f}
					phiAt[df] = append(phiAt[df], phi)
					b.res.MemPhis = append(b.res.MemPhis, phi)
					// The phi is itself a definition of o.
					work = append(work, df)
				}
			}
		})
		for _, blk := range f.Blocks {
			if phis := phiAt[blk]; len(phis) > 0 {
				blk.Instrs = append(phis, blk.Instrs...)
			}
		}
	}
}

// annotate fills label-indexed Mu/Chi after renumbering. Each set is
// built as before and then replaced by its canonical equal set, so the
// many loads and stores through equal pointers, and the MEMPHIs of one
// object, share one μ or χ set. The sets are frozen from here on.
func (b *builder) annotate() {
	n := len(b.prog.Instrs)
	b.res.Mu = make([]*bitset.Sparse, n)
	b.res.Chi = make([]*bitset.Sparse, n)
	sets := bitset.NewInterner()
	for _, f := range b.prog.Funcs {
		f.ForEachInstr(func(in *ir.Instr) {
			switch in.Op {
			case ir.Load:
				b.res.Mu[in.Label] = sets.Canon(b.aux.PointsTo(in.Uses[0]).Clone())
			case ir.Store:
				b.res.Chi[in.Label] = sets.Canon(b.aux.PointsTo(in.Uses[0]).Clone())
			case ir.Call:
				b.res.Mu[in.Label] = sets.Canon(b.calleeSet(in, b.res.FormalIn))
			case ir.CallRet:
				b.res.Chi[in.Label] = sets.Canon(b.calleeSet(in.CallSite, b.res.FormalOut))
			case ir.FunEntry:
				b.res.Chi[in.Label] = sets.Canon(b.res.FormalIn[in.Parent].Clone())
			case ir.FunExit:
				b.res.Mu[in.Label] = sets.Canon(b.res.FormalOut[in.Parent].Clone())
			case ir.MemPhi:
				b.res.Chi[in.Label] = sets.Canon(bitset.Of(uint32(b.prog.ObjNum(in.Obj))))
			}
		})
	}
}

// link appends slot t to slot s's successors. Every
// cancelCheckInterval successors it polls ctx, so one huge function
// stays interruptible and a steps budget pays a step per chain; the
// pass that linked stops at its next check of b.err.
func (b *builder) link(s, t int) {
	b.res.Succs[s] = append(b.res.Succs[s], uint32(t))
	if b.chains++; b.chains%cancelCheckInterval == 0 && b.err == nil {
		b.err = b.tick(cancelCheckInterval)
	}
}

// rename walks each function's dominator tree, maintaining a stack of
// reaching definitions (slots) per object, and links each definition to
// its uses. Each chain is linked once by construction: a (node, object)
// use has one reaching definition, and a MEMPHI remembers the operands
// it already has, since two predecessors (or one listed twice) may feed
// it the same one.
func (b *builder) rename() error {
	r := b.res
	phiOps := make([][]int, len(b.prog.Instrs))
	// stacks[o] holds the slots of o's reaching definitions. A block
	// pops what it pushed, so the stacks are empty again after every
	// function.
	stacks := make([][]int, b.prog.NumObjects())
	top := func(o ir.Obj) (int, bool) {
		s := stacks[o]
		if len(s) == 0 {
			return 0, false
		}
		return s[len(s)-1], true
	}
	for _, f := range b.prog.Funcs {
		if err := b.tick(int64(len(f.Blocks))); err != nil {
			return err
		}
		info := cfg.Compute(f)

		// Dominator-tree children.
		children := make(map[*ir.Block][]*ir.Block)
		for _, blk := range f.Blocks {
			if idom := info.Idom(blk); idom != nil {
				children[idom] = append(children[idom], blk)
			}
		}

		var visit func(blk *ir.Block)
		visit = func(blk *ir.Block) {
			if b.err != nil {
				return
			}
			var pushed []ir.Obj
			for _, in := range blk.Instrs {
				// A use (μ) or the previous version flowing into a
				// (weak) update (χ) links the reaching definition, but a
				// MEMPHI's operands are linked from its predecessors; a
				// χ then defines the object.
				lo, hi := r.SlotRange(in.Label)
				chi := r.ChiOf(in.Label)
				for s := lo; s < hi; s++ {
					o := r.SlotObj(s)
					if d, ok := top(o); ok && in.Op != ir.MemPhi {
						b.link(d, s)
					}
					if chi.Has(uint32(o)) {
						stacks[o] = append(stacks[o], s)
						pushed = append(pushed, o)
					}
				}
			}
			// Feed MEMPHI operands of CFG successors.
			for _, succ := range blk.Succs {
				for _, in := range succ.Instrs {
					if in.Op != ir.MemPhi {
						break // phis are grouped at the top
					}
					phi, _ := r.SlotRange(in.Label)
					if d, ok := top(r.SlotObj(phi)); ok && !slices.Contains(phiOps[in.Label], d) {
						phiOps[in.Label] = append(phiOps[in.Label], d)
						b.link(d, phi)
					}
				}
			}
			for _, c := range children[blk] {
				visit(c)
			}
			for i := len(pushed) - 1; i >= 0; i-- {
				o := pushed[i]
				stacks[o] = stacks[o][:len(stacks[o])-1]
			}
		}
		if visit(f.Entry); b.err != nil {
			return b.err
		}
	}
	return nil
}

// interprocDirectCalls links the μ/χ chains across direct calls.
// Indirect calls are linked during flow-sensitive solving.
func (b *builder) interprocDirectCalls() error {
	for _, f := range b.prog.Funcs {
		f.ForEachInstr(func(in *ir.Instr) {
			if in.Op == ir.Call && in.Callee != nil {
				b.res.CallChains(in, in.Callee, b.link)
			}
		})
		if b.err != nil {
			return b.err
		}
	}
	return nil
}

// CallChains calls link(s, t) for each chain that call reaching callee
// adds, from slot s to slot t: the definition reaching the call flows
// into the callee's FUNENTRY, and the definition reaching the callee's
// FUNEXIT flows back into the call's CallRet. The entry chains come
// first, each group by ascending object. χ(FUNENTRY) = FormalIn and
// μ(FUNEXIT) = FormalOut, so walking those slots walks the callee's
// formals.
func (r *Result) CallChains(call *ir.Instr, callee *ir.Function, link func(s, t int)) {
	lo, hi := r.SlotRange(callee.EntryInstr.Label)
	for t := lo; t < hi; t++ {
		if s, ok := r.Slot(call.Label, r.SlotObj(t)); ok {
			link(s, t)
		}
	}
	if ret := r.CallRets[call]; ret != nil {
		lo, hi = r.SlotRange(callee.ExitInstr.Label)
		for s := lo; s < hi; s++ {
			if t, ok := r.Slot(ret.Label, r.SlotObj(s)); ok {
				link(s, t)
			}
		}
	}
}
