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
	"unsafe"

	"vsfs/internal/andersen"
	"vsfs/internal/bitset"
	"vsfs/internal/cfg"
	"vsfs/internal/graph"
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

	// Succs row s lists, in visit order, the slots whose definition or
	// use of o the definition at slot s = (ℓ, o) reaches: a use (μ), the
	// previous-version operand of a χ, or a MEMPHI operand. An o-chain
	// joins two o-slots, so the object is implied. These are the
	// intraprocedural indirect def-use chains plus the interprocedural
	// chains of direct calls; chains for indirect calls are added during
	// flow-sensitive solving (on-the-fly call graph), by the graph that
	// solves, never here. One arena holds every row and nothing writes
	// it once built, so every graph built from this Result shares it.
	Succs graph.CSR

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
	start    []uint32
	obj      []ir.Obj
	node     []uint32
	objStart []uint32
	objSlots []uint32
}

// NumberSlots numbers the slots of the current μ/χ annotation and gives
// each an empty row of successors. BuildContext calls it once the
// annotation is final; a hand-annotated Result calls it before a graph
// is built from it.
func (r *Result) NumberSlots() {
	n := len(r.Prog.Instrs)
	size := 0
	for l := range n {
		size += r.MuOf(uint32(l)).Len() + r.ChiOf(uint32(l)).Len()
	}
	sl := Slots{
		start: make([]uint32, n+1),
		obj:   make([]ir.Obj, 0, size),
		node:  make([]uint32, 0, size),
	}
	for l := range n {
		sl.start[l] = uint32(len(sl.obj))
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
	sl.start[n] = uint32(len(sl.obj))

	// Counting sort by object; slots are visited ascending, so each
	// object's list comes out ascending too.
	sl.objStart = make([]uint32, r.Prog.NumObjects()+1)
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
	r.Succs = graph.NewCSR(len(sl.obj))
}

// bytes returns the storage the slot numbering holds.
func (sl *Slots) bytes() int64 {
	return 4 * int64(len(sl.start)+len(sl.obj)+len(sl.node)+len(sl.objStart)+len(sl.objSlots))
}

// Slot returns the slot of (ℓ, o), and false if o is not in μ(ℓ)∪χ(ℓ).
func (sl *Slots) Slot(l uint32, o ir.Obj) (int, bool) {
	lo, hi := sl.SlotRange(l)
	i, ok := slices.BinarySearch(sl.obj[lo:hi], o)
	return lo + i, ok
}

// SlotRange returns ℓ's slots: lo .. hi-1, ordered by object.
func (sl *Slots) SlotRange(l uint32) (lo, hi int) {
	return int(sl.start[l]), int(sl.start[l+1])
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
// Result. Each poll also charges the budget's memory dimension with the
// storage grown since the last one: the Result's and the mod/ref sets.
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
		func() error {
			b.annotate()
			b.res.NumberSlots()
			b.grew(b.res.Slots.bytes() + b.res.Succs.Bytes())
			return nil
		},
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
	b.fill()
	return b.res, nil
}

type builder struct {
	ctx  context.Context
	prog *ir.Program
	aux  *andersen.Result
	res  *Result

	mod map[*ir.Function]*bitset.Sparse
	ref map[*ir.Function]*bitset.Sparse

	// bytes is the storage grown so far, which meter charges at polls.
	bytes int64
	meter guard.Meter

	// Linking walks the renaming twice: the first walk counts each
	// slot's successors and polls, the second, filling, writes them
	// into the arena in the same order.
	filling bool
	chains  int   // successors counted so far
	err     error // the first failed poll while linking

	// kids row kidBase[fi] + blk.Index lists the dominator-tree
	// children of block blk of function fi, in block order, numbered
	// like it.
	kids    graph.CSR
	kidBase []uint32

	// Rename scratch. defs is one stack of every object's reaching
	// definitions: entry i is a definition slot and the index of the
	// entry it shadows for the same object; top[o] indexes o's newest
	// entry, -1 for none. A block pops back to the height it entered at.
	defs []reachingDef
	top  []int32

	// MEMPHI operands seen, so a definition two predecessors share is
	// linked once: phi ordinal q (in block order within the function)
	// holds ops[opOff[q] : opOff[q]+opLen[q]]; a block's first phi is
	// ordinal firstPhi[blk.Index].
	firstPhi     []int32
	opOff, opLen []int32
	ops          []uint32

	// Placement scratch, by object: the head and tail of its list of
	// χ blocks (entries defBlk/defNext) when stamp[o] == gen.
	headDef, tailDef, stamp []int32
	defBlk, defNext         []int32
	defined                 []uint32
	gen                     int32
	placed                  []uint32 // by block: the object pass that placed a MEMPHI there
	pass                    uint32
	work                    []int32
	phiBlk                  []int32 // placements, in order: block index and object
	phiObj                  []ir.Obj
	phiCount                []int32      // by block
	slabs                   [][]ir.Instr // each function's MEMPHIs

	singleton []*bitset.Sparse // canonical {o}, by object
}

// instrBytes is the size of one instruction in a MEMPHI or CallRet slab.
const instrBytes = int64(unsafe.Sizeof(ir.Instr{}))

// reachingDef is one entry of the rename stack.
type reachingDef struct {
	slot uint32
	prev int32
}

// grew records n bytes of new storage, charged at the next poll.
func (b *builder) grew(n int64) { b.bytes += n }

// union adds src to dst, recording the words dst grows by, and reports
// whether dst changed.
func (b *builder) union(dst, src *bitset.Sparse) bool {
	words := dst.Words()
	changed := dst.UnionWith(src)
	b.grew(int64(dst.Words()-words) * bitset.WordBytes)
	return changed
}

func (b *builder) tick(n int64) error {
	return b.meter.Tick(b.ctx, "memssa", n, b.bytes)
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
				b.union(b.mod[f], b.aux.PointsTo(in.Uses[0]))
			case ir.Load:
				b.union(b.ref[f], b.aux.PointsTo(in.Uses[0]))
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
			changed := b.union(b.mod[f], b.mod[g])
			if b.union(b.ref[f], b.ref[g]) {
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
		b.res.FormalIn[f], b.res.FormalOut[f] = fin, b.mod[f].Clone()
		b.grew(int64(fin.Words()+b.mod[f].Words()) * bitset.WordBytes)
	}
	return nil
}

// insertCallRets gives every call that may modify objects (per the
// auxiliary analysis) a companion CallRet node placed right after it, so
// returned definitions merge after the call rather than into the values
// sent to the callee. A function's CallRets live in one slab, and the
// instruction lists of the blocks that gain some in another.
func (b *builder) insertCallRets() {
	mayModify := func(in *ir.Instr) bool {
		return in.Op == ir.Call && !b.calleeSet(in, b.res.FormalOut).IsEmpty()
	}
	for _, f := range b.prog.Funcs {
		rets, size := 0, 0
		for _, blk := range f.Blocks {
			n := 0
			for _, in := range blk.Instrs {
				if mayModify(in) {
					n++
				}
			}
			if n > 0 {
				rets += n
				size += n + len(blk.Instrs)
			}
		}
		if rets == 0 {
			continue
		}
		slab := make([]ir.Instr, 0, rets)
		lists := make([]*ir.Instr, 0, size)
		b.grew(int64(rets)*instrBytes + 8*int64(size))
		for _, blk := range f.Blocks {
			if !slices.ContainsFunc(blk.Instrs, mayModify) {
				continue
			}
			start := len(lists)
			for _, in := range blk.Instrs {
				lists = append(lists, in)
				if mayModify(in) {
					slab = append(slab, ir.Instr{Op: ir.CallRet, CallSite: in, Block: blk, Parent: f})
					ret := &slab[len(slab)-1]
					b.res.CallRets[in] = ret
					lists = append(lists, ret)
				}
			}
			blk.Instrs = lists[start:len(lists):len(lists)]
		}
	}
}

// calleeSet unions a per-callee set over a call's auxiliary targets.
// The result may be one callee's own set, so it must not be mutated.
func (b *builder) calleeSet(call *ir.Instr, of map[*ir.Function]*bitset.Sparse) *bitset.Sparse {
	callees := b.aux.CalleesOf(call)
	if len(callees) == 1 {
		return of[callees[0]]
	}
	out := bitset.New()
	for _, callee := range callees {
		b.union(out, of[callee])
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
// frontier of each object's χ blocks, and keeps each function's
// dominator tree for rename, so cfg.Compute runs once per function.
func (b *builder) placeMemPhis() {
	nobj := b.prog.NumObjects()
	b.headDef = make([]int32, nobj)
	b.tailDef = make([]int32, nobj)
	b.stamp = make([]int32, nobj)
	// Blocks are numbered program-wide, function by function: block
	// blk of function fi is kidBase[fi] + blk.Index.
	b.kidBase = make([]uint32, len(b.prog.Funcs))
	nblk := uint32(0)
	for fi, f := range b.prog.Funcs {
		b.kidBase[fi] = nblk
		nblk += uint32(len(f.Blocks))
	}
	idom := make([]int32, nblk) // -1 for the entry and unreachable blocks
	for fi, f := range b.prog.Funcs {
		info := cfg.Compute(f)
		for _, blk := range f.Blocks {
			d := int32(-1)
			if p := info.Idom(blk); p != nil {
				d = int32(b.kidBase[fi]) + int32(p.Index)
			}
			idom[b.kidBase[fi]+uint32(blk.Index)] = d
		}
		b.placeIn(f, info)
	}
	b.kids = graph.NewCSR(int(nblk))
	for _, d := range idom {
		if d >= 0 {
			b.kids.Count(uint32(d))
		}
	}
	b.kids.Alloc()
	for v, d := range idom {
		if d >= 0 {
			b.kids.Put(uint32(d), uint32(v))
		}
	}
	b.kids.Done()
	n := 0
	for _, phis := range b.slabs {
		n += len(phis)
	}
	b.res.MemPhis = make([]*ir.Instr, 0, n)
	for _, phis := range b.slabs {
		for i := range phis {
			b.res.MemPhis = append(b.res.MemPhis, &phis[i])
		}
	}
	b.slabs = nil
}

// placeIn places f's MEMPHIs. They live in one slab, and the
// instruction lists of the blocks that gain some in another.
func (b *builder) placeIn(f *ir.Function, info *cfg.Info) {
	// Each object's χ blocks, in instruction order, each once.
	b.gen++
	b.defBlk, b.defNext, b.defined = b.defBlk[:0], b.defNext[:0], b.defined[:0]
	for _, blk := range f.Blocks {
		if !info.Reachable(blk) {
			continue
		}
		for _, in := range blk.Instrs {
			b.chiObjectsAt(in).ForEach(func(o uint32) {
				e := int32(len(b.defBlk))
				switch {
				case b.stamp[o] != b.gen:
					b.stamp[o] = b.gen
					b.headDef[o] = e
					b.defined = append(b.defined, o)
				case b.defBlk[b.tailDef[o]] == int32(blk.Index):
					return
				default:
					b.defNext[b.tailDef[o]] = e
				}
				b.tailDef[o] = e
				b.defBlk = append(b.defBlk, int32(blk.Index))
				b.defNext = append(b.defNext, -1)
			})
		}
	}

	// Objects in ascending order, for a deterministic placement.
	slices.Sort(b.defined)
	b.placed = grown(b.placed, len(f.Blocks))
	b.phiBlk, b.phiObj = b.phiBlk[:0], b.phiObj[:0]
	for _, o := range b.defined {
		b.pass++
		b.work = b.work[:0]
		for e := b.headDef[o]; e >= 0; e = b.defNext[e] {
			b.work = append(b.work, b.defBlk[e])
		}
		for len(b.work) > 0 {
			blk := f.Blocks[b.work[len(b.work)-1]]
			b.work = b.work[:len(b.work)-1]
			for _, df := range info.Frontier(blk) {
				if b.placed[df.Index] == b.pass {
					continue
				}
				b.placed[df.Index] = b.pass
				b.phiBlk = append(b.phiBlk, int32(df.Index))
				b.phiObj = append(b.phiObj, ir.Obj(o))
				// The phi is itself a definition of o.
				b.work = append(b.work, int32(df.Index))
			}
		}
	}
	if len(b.phiBlk) == 0 {
		return
	}

	phis := make([]ir.Instr, len(b.phiBlk))
	b.slabs = append(b.slabs, phis)
	b.phiCount = grown(b.phiCount, len(f.Blocks))
	clear(b.phiCount[:len(f.Blocks)])
	size := 0
	for i, bi := range b.phiBlk {
		phis[i] = ir.Instr{Op: ir.MemPhi, Obj: b.prog.ObjID(b.phiObj[i]), Block: f.Blocks[bi], Parent: f}
		if b.phiCount[bi]++; b.phiCount[bi] == 1 {
			size += len(f.Blocks[bi].Instrs)
		}
	}
	size += len(phis)
	b.grew(int64(len(phis))*instrBytes + 8*int64(size))

	// Each block's phis, in placement order, then its old instructions.
	// phiCount[bi] becomes the block's next free cell in lists.
	lists := make([]*ir.Instr, size)
	at := 0
	for _, blk := range f.Blocks {
		n := int(b.phiCount[blk.Index])
		if n == 0 {
			continue
		}
		end := at + n + len(blk.Instrs)
		copy(lists[at+n:end], blk.Instrs)
		blk.Instrs = lists[at:end:end]
		b.phiCount[blk.Index] = int32(at)
		at = end
	}
	for i, bi := range b.phiBlk {
		lists[b.phiCount[bi]] = &phis[i]
		b.phiCount[bi]++
	}
}

// grown returns s with length at least n, reusing its storage when it
// can. New cells are zero; reused ones keep their contents.
func grown[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	return append(s, make([]T, n-len(s))...)
}

// annotate fills label-indexed Mu/Chi after renumbering. Each set is
// replaced by its canonical equal set, so the many loads and stores
// through equal pointers, and the MEMPHIs of one object, share one μ or
// χ set. The sets are frozen from here on.
func (b *builder) annotate() {
	n := len(b.prog.Instrs)
	b.res.Mu = make([]*bitset.Sparse, n)
	b.res.Chi = make([]*bitset.Sparse, n)
	b.grew(16 * int64(n))
	sets := bitset.NewInterner()
	b.singleton = make([]*bitset.Sparse, b.prog.NumObjects())
	for _, f := range b.prog.Funcs {
		f.ForEachInstr(func(in *ir.Instr) {
			switch in.Op {
			case ir.Load:
				b.res.Mu[in.Label] = sets.Intern(b.aux.PointsTo(in.Uses[0]))
			case ir.Store:
				b.res.Chi[in.Label] = sets.Intern(b.aux.PointsTo(in.Uses[0]))
			case ir.Call:
				b.res.Mu[in.Label] = sets.Intern(b.calleeSet(in, b.res.FormalIn))
			case ir.CallRet:
				b.res.Chi[in.Label] = sets.Intern(b.calleeSet(in.CallSite, b.res.FormalOut))
			case ir.FunEntry:
				b.res.Chi[in.Label] = sets.Intern(b.res.FormalIn[in.Parent])
			case ir.FunExit:
				b.res.Mu[in.Label] = sets.Intern(b.res.FormalOut[in.Parent])
			case ir.MemPhi:
				o := b.prog.ObjNum(in.Obj)
				if b.singleton[o] == nil {
					b.singleton[o] = sets.Canon(bitset.Of(uint32(o)))
				}
				b.res.Chi[in.Label] = b.singleton[o]
			}
		})
	}
	b.grew(int64(sets.Words()) * bitset.WordBytes)
}

// link adds slot t to slot s's successors: the counting walk counts it,
// and every cancelCheckInterval successors polls ctx, so one huge
// function stays interruptible and a steps budget pays a step per
// chain; the pass that linked stops at its next check of b.err. The
// filling walk writes it into the arena.
func (b *builder) link(s, t int) {
	if b.filling {
		b.res.Succs.Put(uint32(s), uint32(t))
		return
	}
	b.res.Succs.Count(uint32(s))
	b.grew(4)
	if b.chains++; b.chains%cancelCheckInterval == 0 && b.err == nil {
		b.err = b.tick(cancelCheckInterval)
	}
}

// fill allocates the arena to the counted size and repeats both linking
// walks, writing each chain into it in the order the count met it.
// Filling neither polls nor charges: the counting walks did.
func (b *builder) fill() {
	b.res.Succs.Alloc()
	b.filling = true
	b.rename()
	b.interprocDirectCalls()
	b.res.Succs.Done()
}

// rename walks each function's dominator tree, maintaining a stack of
// reaching definitions (slots) per object, and links each definition to
// its uses. Each chain is linked once by construction: a (node, object)
// use has one reaching definition, and a MEMPHI remembers the operands
// it already has, since two predecessors (or one listed twice) may feed
// it the same one.
func (b *builder) rename() error {
	if b.top == nil {
		b.top = make([]int32, b.prog.NumObjects())
		for o := range b.top {
			b.top[o] = -1
		}
	}
	for fi, f := range b.prog.Funcs {
		if !b.filling {
			if err := b.tick(int64(len(f.Blocks))); err != nil {
				return err
			}
		}
		b.phiOperands(f)
		if b.visit(f, b.kidBase[fi], f.Entry); b.err != nil {
			return b.err
		}
	}
	return nil
}

// phiOperands gives each of f's MEMPHIs an empty operand list with room
// for one operand per predecessor of its block.
func (b *builder) phiOperands(f *ir.Function) {
	b.firstPhi = grown(b.firstPhi, len(f.Blocks))
	b.opOff, b.opLen = b.opOff[:0], b.opLen[:0]
	room := int32(0)
	for _, blk := range f.Blocks {
		b.firstPhi[blk.Index] = int32(len(b.opOff))
		for _, in := range blk.Instrs {
			if in.Op != ir.MemPhi {
				break // phis are grouped at the top
			}
			b.opOff = append(b.opOff, room)
			b.opLen = append(b.opLen, 0)
			room += int32(len(blk.Preds))
		}
	}
	b.ops = grown(b.ops, int(room))
}

// visit renames blk and then its dominator-tree children; base is the
// number of f's first block in b.kids.
func (b *builder) visit(f *ir.Function, base uint32, blk *ir.Block) {
	if b.err != nil {
		return
	}
	r := b.res
	height := len(b.defs)
	for _, in := range blk.Instrs {
		// A use (μ) or the previous version flowing into a (weak)
		// update (χ) links the reaching definition, but a MEMPHI's
		// operands are linked from its predecessors; a χ then defines
		// the object.
		lo, hi := r.SlotRange(in.Label)
		chi := r.ChiOf(in.Label)
		allChi, someChi := r.MuOf(in.Label).IsEmpty(), !chi.IsEmpty()
		for s := lo; s < hi; s++ {
			o := r.obj[s]
			if d := b.top[o]; d >= 0 && in.Op != ir.MemPhi {
				b.link(int(b.defs[d].slot), s)
			}
			if allChi || someChi && chi.Has(uint32(o)) {
				b.defs = append(b.defs, reachingDef{slot: uint32(s), prev: b.top[o]})
				b.top[o] = int32(len(b.defs) - 1)
			}
		}
	}
	// Feed MEMPHI operands of CFG successors.
	for _, succ := range blk.Succs {
		q := b.firstPhi[succ.Index]
		for _, in := range succ.Instrs {
			if in.Op != ir.MemPhi {
				break
			}
			phi := r.start[in.Label]
			if d := b.top[r.obj[phi]]; d >= 0 {
				b.operand(q, b.defs[d].slot, phi)
			}
			q++
		}
	}
	for _, c := range b.kids.Row(base + uint32(blk.Index)) {
		b.visit(f, base, f.Blocks[c-base])
	}
	for len(b.defs) > height {
		d := b.defs[len(b.defs)-1]
		b.top[r.obj[d.slot]] = d.prev
		b.defs = b.defs[:len(b.defs)-1]
	}
}

// operand links definition d to the MEMPHI slot phi, phi ordinal q,
// unless it already is one of phi's operands.
func (b *builder) operand(q int32, d, phi uint32) {
	ops := b.ops[b.opOff[q]:][:b.opLen[q]]
	if slices.Contains(ops, d) {
		return
	}
	b.ops[b.opOff[q]+b.opLen[q]] = d
	b.opLen[q]++
	b.link(int(d), int(phi))
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
	r.matchSlots(call.Label, callee.EntryInstr.Label, link)
	if ret := r.CallRets[call]; ret != nil {
		r.matchSlots(callee.ExitInstr.Label, ret.Label, link)
	}
}

// matchSlots calls link(s, t) for each object with a slot s at node
// from and a slot t at node to, by ascending object. Both nodes' slots
// ascend by object, so one merge pass pairs them.
func (r *Result) matchSlots(from, to uint32, link func(s, t int)) {
	s, shi := r.SlotRange(from)
	t, thi := r.SlotRange(to)
	for s < shi && t < thi {
		switch os, ot := r.obj[s], r.obj[t]; {
		case os < ot:
			s++
		case os > ot:
			t++
		default:
			link(s, t)
			s++
			t++
		}
	}
}
