// Package fsicfg implements the traditional iterative data-flow
// formulation of flow-sensitive points-to analysis on the
// interprocedural control-flow graph (equations (4)–(5) of the paper).
// It maintains an IN/OUT environment (object → points-to set) at every
// instruction and propagates whole environments across CFG edges — the
// expensive formulation the staged analyses avoid.
//
// Its role in this repository is as a correctness oracle: on programs in
// partial SSA it computes results at least as precise as SFS/VSFS
// (tested as the subset ordering fsicfg ⊆ sfs ≡ vsfs ⊆ andersen), using
// the same strong-update rule and the same global treatment of top-level
// pointers.
package fsicfg

import (
	"vsfs/internal/bitset"
	"vsfs/internal/cfg"
	"vsfs/internal/ir"
	"vsfs/internal/svfg"
)

// Stats counts solver effort.
type Stats struct {
	NodesProcessed int
	Propagations   int
	EnvSets        int // (node, object) sets stored in IN/OUT at fixpoint
	EnvWords       int
}

// Result holds the oracle's outcome.
type Result struct {
	g *svfg.Graph

	// Sets hold object numbers, and in/out are keyed by object number.
	pt  []*bitset.Sparse
	in  []map[ir.Obj]*bitset.Sparse
	out []map[ir.Obj]*bitset.Sparse

	callees map[*ir.Instr]map[*ir.Function]bool

	Stats Stats
}

var empty = bitset.New()

// PointsTo returns the points-to set of a top-level pointer.
func (r *Result) PointsTo(v ir.ID) *bitset.Sparse {
	if int(v) < len(r.pt) && r.pt[v] != nil {
		return r.pt[v]
	}
	return empty
}

// CalleesOf returns the resolved callees of a call instruction.
func (r *Result) CalleesOf(call *ir.Instr) []*ir.Function {
	m := r.callees[call]
	out := make([]*ir.Function, 0, len(m))
	for f := range m {
		out = append(out, f)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Name < out[j-1].Name; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Solve runs the ICFG analysis to fixpoint. The graph supplies the
// program, the singleton classification and the top-level use index; the
// value-flow edges themselves are not used.
func Solve(g *svfg.Graph) *Result {
	n := len(g.Prog.Instrs)
	s := &state{
		Result: &Result{
			g:       g,
			pt:      make([]*bitset.Sparse, g.Prog.NumValues()+1),
			in:      make([]map[ir.Obj]*bitset.Sparse, n),
			out:     make([]map[ir.Obj]*bitset.Sparse, n),
			callees: make(map[*ir.Instr]map[*ir.Function]bool),
		},
		preds:     make([][]uint32, n),
		succs:     make([][]uint32, n),
		reachable: make([]bool, n),
		fsCallers: make(map[*ir.Function][]uint32),
	}
	s.buildICFG()
	s.run()
	s.collectStats()
	return s.Result
}

type state struct {
	*Result

	preds, succs [][]uint32
	reachable    []bool

	fsCallers map[*ir.Function][]uint32

	work worklist
}

type worklist struct {
	queue []uint32
	in    bitset.Sparse
}

func (w *worklist) push(n uint32) {
	if w.in.Set(n) {
		w.queue = append(w.queue, n)
	}
}

func (w *worklist) pop() (uint32, bool) {
	if len(w.queue) == 0 {
		return 0, false
	}
	n := w.queue[0]
	w.queue = w.queue[1:]
	w.in.Clear(n)
	return n, true
}

func (s *state) addEdge(from, to uint32) {
	for _, t := range s.succs[from] {
		if t == to {
			return
		}
	}
	s.succs[from] = append(s.succs[from], to)
	s.preds[to] = append(s.preds[to], from)
}

// buildICFG wires intraprocedural sequencing over reachable blocks.
// Interprocedural edges are added during solving as callees resolve.
func (s *state) buildICFG() {
	for _, f := range s.g.Prog.Funcs {
		info := cfg.Compute(f)
		for _, blk := range f.Blocks {
			if !info.Reachable(blk) {
				continue
			}
			for _, in := range blk.Instrs {
				s.reachable[in.Label] = true
			}
			for i := 0; i+1 < len(blk.Instrs); i++ {
				s.addEdge(blk.Instrs[i].Label, blk.Instrs[i+1].Label)
			}
			if len(blk.Instrs) == 0 {
				continue
			}
			last := blk.Instrs[len(blk.Instrs)-1].Label
			for _, succ := range blk.Succs {
				if info.Reachable(succ) && len(succ.Instrs) > 0 {
					s.addEdge(last, succ.Instrs[0].Label)
				}
			}
		}
	}
}

// afterCall returns the ICFG node that receives control when a callee
// returns: the instruction after the call (its CallRet companion when
// present), or the successors' first instructions if the call ends its
// block. Returned as a list to cover the block-末 case.
func (s *state) afterCall(call *ir.Instr) []uint32 {
	blk := call.Block
	for i, in := range blk.Instrs {
		if in == call {
			if i+1 < len(blk.Instrs) {
				return []uint32{blk.Instrs[i+1].Label}
			}
			var out []uint32
			for _, succ := range blk.Succs {
				if len(succ.Instrs) > 0 {
					out = append(out, succ.Instrs[0].Label)
				}
			}
			return out
		}
	}
	return nil
}

func (s *state) ptOf(v ir.ID) *bitset.Sparse {
	if int(v) >= len(s.pt) {
		grown := make([]*bitset.Sparse, s.g.Prog.NumValues()+1)
		copy(grown, s.pt)
		s.pt = grown
	}
	if s.pt[v] == nil {
		s.pt[v] = bitset.New()
	}
	return s.pt[v]
}

func (s *state) addPt(v ir.ID, src *bitset.Sparse) {
	s.Stats.Propagations++
	if s.ptOf(v).UnionWith(src) {
		for _, u := range s.g.UsersOf(v) {
			if s.reachable[u] {
				s.work.push(u)
			}
		}
	}
}

func envGet(m map[ir.Obj]*bitset.Sparse, o ir.Obj) *bitset.Sparse {
	if set := m[o]; set != nil {
		return set
	}
	return empty
}

func (s *state) run() {
	prog := s.g.Prog
	for l := 1; l < len(prog.Instrs); l++ {
		if s.reachable[l] {
			s.work.push(uint32(l))
		}
	}
	for {
		l, ok := s.work.pop()
		if !ok {
			return
		}
		s.Stats.NodesProcessed++
		s.process(prog.Instrs[l])
	}
}

func (s *state) process(in *ir.Instr) {
	l := in.Label

	// IN(ℓ) = ∪ OUT(pred) — equation (4).
	if s.in[l] == nil {
		s.in[l] = make(map[ir.Obj]*bitset.Sparse)
	}
	inEnv := s.in[l]
	for _, p := range s.preds[l] {
		for o, set := range s.out[p] {
			if set.IsEmpty() {
				continue
			}
			cur := inEnv[o]
			if cur == nil {
				cur = bitset.New()
				inEnv[o] = cur
			}
			s.Stats.Propagations++
			cur.UnionWith(set)
		}
	}

	// Top-level effects.
	switch in.Op {
	case ir.Alloc:
		s.Stats.Propagations++
		if s.ptOf(in.Def).Set(uint32(s.g.Prog.ObjNum(in.Obj))) {
			for _, u := range s.g.UsersOf(in.Def) {
				if s.reachable[u] {
					s.work.push(u)
				}
			}
		}
	case ir.Copy:
		s.addPt(in.Def, s.ptOf(in.Uses[0]))
	case ir.Phi:
		for _, u := range in.Uses {
			s.addPt(in.Def, s.ptOf(u))
		}
	case ir.Field:
		prog := s.g.Prog
		add := bitset.New()
		s.ptOf(in.Uses[0]).ForEach(func(o uint32) {
			if prog.ObjValue(ir.Obj(o)).ObjKind == ir.FuncObj {
				return
			}
			add.Set(uint32(prog.ObjNum(prog.FieldObj(prog.ObjID(ir.Obj(o)), in.Off))))
		})
		s.addPt(in.Def, add)
	case ir.Load:
		s.ptOf(in.Uses[0]).Clone().ForEach(func(o uint32) {
			s.addPt(in.Def, envGet(inEnv, ir.Obj(o)))
		})
	case ir.Call:
		s.processCall(in)
	case ir.FunExit:
		for _, c := range s.fsCallers[in.Parent] {
			s.work.push(c)
		}
	}

	// OUT(ℓ) = Gen ∪ (IN − Kill) — equation (5).
	if s.out[l] == nil {
		s.out[l] = make(map[ir.Obj]*bitset.Sparse)
	}
	outEnv := s.out[l]
	changed := false

	if in.Op == ir.Store {
		p, q := in.Uses[0], in.Uses[1]
		ptp := s.ptOf(p)
		ptq := s.ptOf(q)
		// Static strong-update predicate, matching sfs and core.
		strong := false
		if single, ok := s.g.Aux.PointsTo(p).Single(); ok && s.g.IsSingleton(ir.Obj(single)) {
			strong = true
		}
		for o, set := range inEnv {
			if strong && s.g.Aux.PointsTo(p).Has(uint32(o)) {
				continue // killed; gen below
			}
			cur := outEnv[o]
			if cur == nil {
				cur = bitset.New()
				outEnv[o] = cur
			}
			s.Stats.Propagations++
			if cur.UnionWith(set) {
				changed = true
			}
		}
		gen := ptp
		if strong {
			gen = s.g.Aux.PointsTo(p) // the single always-written object
		}
		gen.ForEach(func(o uint32) {
			cur := outEnv[ir.Obj(o)]
			if cur == nil {
				cur = bitset.New()
				outEnv[ir.Obj(o)] = cur
			}
			s.Stats.Propagations++
			if cur.UnionWith(ptq) {
				changed = true
			}
		})
	} else {
		for o, set := range inEnv {
			cur := outEnv[o]
			if cur == nil {
				cur = bitset.New()
				outEnv[o] = cur
			}
			s.Stats.Propagations++
			if cur.UnionWith(set) {
				changed = true
			}
		}
	}

	if changed {
		for _, succ := range s.succs[l] {
			s.work.push(succ)
		}
	}
}

// processCall resolves callees (on the fly for indirect calls), wires
// top-level flow, and installs the interprocedural ICFG edges
// call → callee-entry and callee-exit → after-call.
func (s *state) processCall(in *ir.Instr) {
	resolve := func(callee *ir.Function) {
		m := s.callees[in]
		if m == nil {
			m = make(map[*ir.Function]bool)
			s.callees[in] = m
		}
		if !m[callee] {
			m[callee] = true
			s.fsCallers[callee] = append(s.fsCallers[callee], in.Label)
			entry := callee.EntryInstr.Label
			exit := callee.ExitInstr.Label
			s.reachable[entry] = true
			s.addEdge(in.Label, entry)
			for _, after := range s.afterCall(in) {
				s.addEdge(exit, after)
				// The exit's OUT may already be stable; make the new
				// successor pull it.
				s.work.push(after)
			}
			s.work.push(entry)
		}
		args := in.CallArgs()
		for i, a := range args {
			if i >= len(callee.Params) {
				break
			}
			s.addPt(callee.Params[i], s.ptOf(a))
		}
		if in.Def != ir.None && callee.Ret != ir.None {
			s.addPt(in.Def, s.ptOf(callee.Ret))
		}
	}

	if in.Callee != nil {
		resolve(in.Callee)
		return
	}
	prog := s.g.Prog
	s.ptOf(in.CalleePtr()).Clone().ForEach(func(o uint32) {
		if v := prog.ObjValue(ir.Obj(o)); v.ObjKind == ir.FuncObj {
			resolve(v.Func)
		}
	})
}

func (s *state) collectStats() {
	count := func(envs []map[ir.Obj]*bitset.Sparse) {
		for _, m := range envs {
			for _, set := range m {
				s.Stats.EnvSets++
				s.Stats.EnvWords += set.Words()
			}
		}
	}
	count(s.in)
	count(s.out)
}
