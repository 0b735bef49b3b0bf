// Package memssa builds the memory SSA form over address-taken objects:
// it computes transitive mod/ref summaries from the auxiliary analysis,
// annotates instructions with χ (may-define) and μ (may-use) sets,
// inserts MEMPHI instructions at iterated dominance frontiers, and then
// renames per-object definitions along the dominator tree to produce the
// indirect def-use chains that become the SVFG's indirect value-flow
// edges.
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

// cancelCheckInterval is how many fixpoint iterations pass between
// context/budget polls inside the mod/ref worklist.
const cancelCheckInterval = 1024

// IndirEdge is one indirect value-flow: the definition of Obj at From
// reaches a use (μ, the previous-version operand of a χ, or a MEMPHI
// operand) at To. From and To are instruction labels.
type IndirEdge struct {
	From, To uint32
	Obj      ir.Obj
}

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

	// Edges are the intraprocedural indirect def-use chains plus the
	// interprocedural chains of direct calls. Chains for indirect calls
	// are added during flow-sensitive solving (on-the-fly call graph).
	// Graph construction is their only reader; a caller that builds
	// every graph it needs may set Edges to nil to release them.
	Edges []IndirEdge

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
// passes and periodically inside the mod/ref fixpoint, returning the
// context or budget error instead of a Result.
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
		func() error { b.annotate(); return nil },
		b.rename,
		func() error { b.interprocDirectCalls(); return nil },
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

func (b *builder) addEdge(from, to uint32, obj ir.Obj) {
	b.res.Edges = append(b.res.Edges, IndirEdge{From: from, To: to, Obj: obj})
}

// rename walks each function's dominator tree, maintaining a stack of
// reaching definitions per object, and records def→use edges. Each edge
// is added once by construction: a (node, object) use has one reaching
// definition, and a MEMPHI remembers the operands it already has, since
// two predecessors (or one listed twice) may feed it the same one.
func (b *builder) rename() error {
	phiOps := make([][]uint32, len(b.prog.Instrs))
	// stacks[o] holds the reaching definitions of o. A block pops what
	// it pushed, so the stacks are empty again after every function.
	stacks := make([][]uint32, b.prog.NumObjects())
	top := func(o ir.Obj) (uint32, bool) {
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
			var pushed []ir.Obj
			for _, in := range blk.Instrs {
				if in.Op == ir.MemPhi {
					o := b.prog.ObjNum(in.Obj)
					stacks[o] = append(stacks[o], in.Label)
					pushed = append(pushed, o)
					continue
				}
				mu := b.res.MuOf(in.Label)
				mu.ForEach(func(o32 uint32) {
					o := ir.Obj(o32)
					if d, ok := top(o); ok {
						b.addEdge(d, in.Label, o)
					}
				})
				b.res.ChiOf(in.Label).ForEach(func(o32 uint32) {
					o := ir.Obj(o32)
					// The previous version flows into the (weak) update,
					// unless the μ above already added that edge.
					if d, ok := top(o); ok && !mu.Has(o32) {
						b.addEdge(d, in.Label, o)
					}
					stacks[o] = append(stacks[o], in.Label)
					pushed = append(pushed, o)
				})
			}
			// Feed MEMPHI operands of CFG successors.
			for _, s := range blk.Succs {
				for _, in := range s.Instrs {
					if in.Op != ir.MemPhi {
						break // phis are grouped at the top
					}
					o := b.prog.ObjNum(in.Obj)
					if d, ok := top(o); ok && !slices.Contains(phiOps[in.Label], d) {
						phiOps[in.Label] = append(phiOps[in.Label], d)
						b.addEdge(d, in.Label, o)
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
		visit(f.Entry)
	}
	return nil
}

// interprocDirectCalls wires the μ/χ chains across direct calls: the
// definition reaching a call site flows into the callee's FUNENTRY, and
// the definition reaching the callee's FUNEXIT flows back into the call
// site's χ. Indirect calls are wired during flow-sensitive solving.
func (b *builder) interprocDirectCalls() {
	for _, f := range b.prog.Funcs {
		f.ForEachInstr(func(in *ir.Instr) {
			if in.Op != ir.Call || in.Callee == nil {
				return
			}
			callee := in.Callee
			entry, exit := callee.EntryInstr.Label, callee.ExitInstr.Label
			b.res.FormalIn[callee].ForEach(func(o uint32) {
				if b.res.MuOf(in.Label).Has(o) {
					b.addEdge(in.Label, entry, ir.Obj(o))
				}
			})
			if ret := b.res.CallRets[in]; ret != nil {
				b.res.FormalOut[callee].ForEach(func(o uint32) {
					if b.res.ChiOf(ret.Label).Has(o) {
						b.addEdge(exit, ret.Label, ir.Obj(o))
					}
				})
			}
		})
	}
}
