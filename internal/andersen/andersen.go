// Package andersen implements the auxiliary flow-insensitive
// inclusion-based points-to analysis (Andersen's analysis) that stages
// the flow-sensitive phases: its results place the χ/μ annotations,
// drive memory-SSA construction and SVFG indirect edges, and bound the
// object sets used by the prelabelling.
//
// The solver is a standard worklist algorithm with difference
// propagation and periodic offline SCC collapsing of the copy-edge
// graph (cycle elimination), field-sensitive via the ir.Program's field
// objects, and with on-the-fly call-graph resolution for indirect calls.
//
// Constraint nodes are value IDs: top-level pointers and objects alike,
// since an object's contents are a node too. Points-to sets hold object
// numbers (ir.Obj), so a load or store through a pointer turns each
// member into a node with Program.ObjID before adding its copy edge.
package andersen

import (
	"context"

	"vsfs/internal/bitset"
	"vsfs/internal/graph"
	"vsfs/internal/guard"
	"vsfs/internal/ir"
)

// Stats reports solver effort, used by the benchmark harness.
type Stats struct {
	Pops         int // worklist pops with a non-empty delta
	Propagations int // copy-edge propagations that changed a set
	SCCCollapses int // nodes merged by cycle elimination
	FinalNodes   int // value-ID space size at fixpoint
	WorklistHW   int // worklist high-water mark
}

// Result is the outcome of the auxiliary analysis. It is immutable once
// returned and safe for concurrent queries; callers must not mutate the
// points-to sets it hands out.
type Result struct {
	prog *ir.Program

	// rep[v] is the node whose set v shares after cycle elimination:
	// every node points straight at its representative, so a query is
	// one read and never writes.
	rep []uint32
	pts []*bitset.Sparse

	// callTargets maps each Call instruction to its resolved callees:
	// the static callee for direct calls, the discovered targets for
	// indirect calls. Keyed by instruction identity, not label, because
	// the memory-SSA pass renumbers labels afterwards.
	callTargets map[*ir.Instr][]*ir.Function

	// single backs Singletons (see singleton.go).
	single singletons

	Stats Stats
}

// Prog returns the analysed program.
func (r *Result) Prog() *ir.Program { return r.prog }

// PointsTo returns pts^aux(v), a set of object numbers: the points-to
// set of a top-level pointer or the contents of an address-taken
// object, given by value ID. The returned set is shared and must not be
// mutated.
func (r *Result) PointsTo(v ir.ID) *bitset.Sparse {
	if int(v) < len(r.rep) {
		if set := r.pts[r.rep[v]]; set != nil {
			return set
		}
	}
	return emptySet
}

// ObjectSummary returns everything object o may ever hold: its
// flow-insensitive contents.
func (r *Result) ObjectSummary(o ir.Obj) *bitset.Sparse {
	return r.PointsTo(r.prog.ObjID(o))
}

// ConsumedSet answers the flow-sensitive question "what may o hold
// immediately before the instruction labelled label" with the
// flow-insensitive summary: the Andersen view collapses every such
// question, like ObjectSummary, to pts_aux(o), which is exactly the
// over-approximation the oracle's ordering invariants quantify.
func (r *Result) ConsumedSet(label uint32, o ir.Obj) *bitset.Sparse {
	return r.ObjectSummary(o)
}

var emptySet = bitset.New()

// CalleesOf returns the functions a Call instruction may invoke.
func (r *Result) CalleesOf(call *ir.Instr) []*ir.Function {
	return r.callTargets[call]
}

// Analyze runs the auxiliary analysis to fixpoint.
func Analyze(prog *ir.Program) *Result {
	r, _ := AnalyzeContext(context.Background(), prog)
	return r
}

// AnalyzeContext runs the auxiliary analysis to fixpoint, aborting with
// ctx.Err() if the context is cancelled. The worklist loop polls the
// context every cancelCheckInterval pops, so cancellation latency is
// bounded by a small constant amount of solving work.
func AnalyzeContext(ctx context.Context, prog *ir.Program) (*Result, error) {
	s := newSolver(prog)
	s.ctx = ctx
	s.generate()
	if err := s.solve(); err != nil {
		return nil, err
	}
	return s.finish(), nil
}

// cancelCheckInterval is how many worklist iterations pass between
// context polls in the solver loops of this package.
const cancelCheckInterval = 1024

// solver is the mutable analysis state.
type solver struct {
	prog *ir.Program
	ctx  context.Context

	parent    []uint32
	pts       []*bitset.Sparse
	processed []*bitset.Sparse
	succs     []*bitset.Sparse // copy edges, as successor bitsets

	// Complex constraints, indexed by the (representative of the)
	// pointer whose points-to set drives them.
	loadsAt  [][]ir.ID     // q → defs p of "p = *q"
	storesAt [][]ir.ID     // p → sources q of "*p = q"
	fieldsAt [][]fieldUse  // q → (def, off) of "p = &q->f"
	icallsAt [][]*ir.Instr // fp → indirect calls through fp

	// resolved tracks (call label, callee) pairs already wired.
	resolved map[callTarget]bool

	callTargets map[*ir.Instr][]*ir.Function

	work worklist

	stats Stats
	pops  int
}

type fieldUse struct {
	def ir.ID
	off int
}

type callTarget struct {
	call *ir.Instr
	fn   *ir.Function
}

// worklist is a FIFO queue with a membership bitset to avoid duplicates.
type worklist struct {
	queue []uint32
	in    bitset.Sparse
	hw    int // high-water mark of queued nodes
}

func (w *worklist) push(n uint32) {
	if w.in.Set(n) {
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
	w.in.Clear(n)
	return n, true
}

func (w *worklist) empty() bool { return len(w.queue) == 0 }

func newSolver(prog *ir.Program) *solver {
	return &solver{
		prog:        prog,
		resolved:    make(map[callTarget]bool),
		callTargets: make(map[*ir.Instr][]*ir.Function),
	}
}

// ensure grows the per-node tables to cover id (field objects are created
// during solving, so the ID space grows).
func (s *solver) ensure(id uint32) {
	//vsfs:lint-ignore guardtick growth is bounded by the node-ID space; the pop that created the id was charged at the run checkpoint
	for uint32(len(s.parent)) <= id {
		s.parent = append(s.parent, uint32(len(s.parent)))
		s.pts = append(s.pts, nil)
		s.processed = append(s.processed, nil)
		s.succs = append(s.succs, nil)
		s.loadsAt = append(s.loadsAt, nil)
		s.storesAt = append(s.storesAt, nil)
		s.fieldsAt = append(s.fieldsAt, nil)
		s.icallsAt = append(s.icallsAt, nil)
	}
}

func (s *solver) find(x uint32) uint32 {
	//vsfs:lint-ignore guardtick union-find path halving is bounded by tree depth and does constant pointer chasing per step
	for s.parent[x] != x {
		s.parent[x] = s.parent[s.parent[x]]
		x = s.parent[x]
	}
	return x
}

func (s *solver) ptsOf(n uint32) *bitset.Sparse {
	if s.pts[n] == nil {
		s.pts[n] = bitset.New()
	}
	return s.pts[n]
}

// addPts inserts obj into pts(n) and schedules n on change.
func (s *solver) addPts(n uint32, obj ir.Obj) {
	n = s.find(n)
	if s.ptsOf(n).Set(uint32(obj)) {
		s.work.push(n)
	}
}

// addCopy inserts the copy edge src→dst (pts(dst) ⊇ pts(src)), eagerly
// propagating the current set.
func (s *solver) addCopy(dst, src ir.ID) {
	d, c := s.find(uint32(dst)), s.find(uint32(src))
	if d == c {
		return
	}
	if s.succs[c] == nil {
		s.succs[c] = bitset.New()
	}
	if !s.succs[c].Set(d) {
		return
	}
	if s.pts[c] != nil && !s.pts[c].IsEmpty() {
		if s.ptsOf(d).UnionWith(s.pts[c]) {
			s.stats.Propagations++
			s.work.push(d)
		}
	}
}

// generate installs the base and complex constraints for every
// instruction.
func (s *solver) generate() {
	s.ensure(uint32(s.prog.NumValues()))
	for _, f := range s.prog.Funcs {
		f.ForEachInstr(func(in *ir.Instr) {
			switch in.Op {
			case ir.Alloc:
				s.addPts(uint32(in.Def), s.prog.ObjNum(in.Obj))
			case ir.Copy:
				s.addCopy(in.Def, in.Uses[0])
			case ir.Phi:
				for _, u := range in.Uses {
					s.addCopy(in.Def, u)
				}
			case ir.Load:
				q := s.find(uint32(in.Uses[0]))
				s.loadsAt[q] = append(s.loadsAt[q], in.Def)
				s.reprocess(q)
			case ir.Store:
				p := s.find(uint32(in.Uses[0]))
				s.storesAt[p] = append(s.storesAt[p], in.Uses[1])
				s.reprocess(p)
			case ir.Field:
				q := s.find(uint32(in.Uses[0]))
				s.fieldsAt[q] = append(s.fieldsAt[q], fieldUse{def: in.Def, off: in.Off})
				s.reprocess(q)
			case ir.Call:
				if in.Callee != nil {
					s.wireCall(in, in.Callee)
				} else {
					fp := s.find(uint32(in.CalleePtr()))
					s.icallsAt[fp] = append(s.icallsAt[fp], in)
					s.reprocess(fp)
				}
			}
		})
	}
}

// reprocess forces the complex constraints at n to see the whole current
// points-to set again (used when a new constraint arrives at a node whose
// set is already partially processed).
func (s *solver) reprocess(n uint32) {
	if s.processed[n] != nil && !s.processed[n].IsEmpty() {
		s.processed[n] = nil
	}
	if s.pts[n] != nil && !s.pts[n].IsEmpty() {
		s.work.push(n)
	}
}

// wireCall connects actuals to formals and the return value for one
// (call, callee) pair, once.
func (s *solver) wireCall(call *ir.Instr, callee *ir.Function) {
	key := callTarget{call: call, fn: callee}
	if s.resolved[key] {
		return
	}
	s.resolved[key] = true
	s.callTargets[call] = append(s.callTargets[call], callee)
	args := call.CallArgs()
	for i, arg := range args {
		if i >= len(callee.Params) {
			break // excess actuals are dropped, as in K&R varargs
		}
		s.addCopy(callee.Params[i], arg)
	}
	if call.Def != ir.None && callee.Ret != ir.None {
		s.addCopy(call.Def, callee.Ret)
	}
}

// solve runs the worklist to fixpoint with periodic cycle elimination.
// It returns the context's error if cancelled mid-solve.
func (s *solver) solve() error {
	const collapseInterval = 20000
	s.collapseCycles()
	for steps := 0; ; steps++ {
		if steps%cancelCheckInterval == 0 {
			if err := guard.Tick(s.ctx, "andersen", cancelCheckInterval); err != nil {
				return err
			}
		}
		n, ok := s.work.pop()
		if !ok {
			break
		}
		n = s.find(n)
		if s.pts[n] == nil {
			continue
		}
		delta := s.pts[n].Clone()
		if s.processed[n] != nil {
			delta.DifferenceWith(s.processed[n])
		}
		if delta.IsEmpty() {
			continue
		}
		if s.processed[n] == nil {
			s.processed[n] = bitset.New()
		}
		s.processed[n].UnionWith(delta)
		s.stats.Pops++

		s.applyComplex(n, delta)

		// Propagate the delta along copy edges.
		if s.succs[n] != nil {
			s.succs[n].ForEach(func(d32 uint32) {
				d := s.find(d32)
				if d == n {
					return
				}
				if s.ptsOf(d).UnionWith(delta) {
					s.stats.Propagations++
					s.work.push(d)
				}
			})
		}

		s.pops++
		if s.pops%collapseInterval == 0 {
			s.collapseCycles()
		}
	}
	return nil
}

// applyComplex handles loads, stores, field addresses and indirect calls
// whose base pointer gained the objects in delta. An object's contents
// are the node named by its value ID.
func (s *solver) applyComplex(n uint32, delta *bitset.Sparse) {
	prog := s.prog
	for _, def := range s.loadsAt[n] {
		delta.ForEach(func(o uint32) {
			s.addCopy(def, prog.ObjID(ir.Obj(o))) // pts(def) ⊇ pts(o)
		})
	}
	for _, src := range s.storesAt[n] {
		delta.ForEach(func(o uint32) {
			s.addCopy(prog.ObjID(ir.Obj(o)), src) // pts(o) ⊇ pts(src)
		})
	}
	for _, fu := range s.fieldsAt[n] {
		delta.ForEach(func(o uint32) {
			if prog.ObjValue(ir.Obj(o)).ObjKind == ir.FuncObj {
				return // no fields of functions
			}
			fo := prog.FieldObj(prog.ObjID(ir.Obj(o)), fu.off)
			s.ensure(uint32(prog.NumValues()) - 1)
			s.addPts(uint32(fu.def), prog.ObjNum(fo))
		})
	}
	if calls := s.icallsAt[n]; len(calls) > 0 {
		delta.ForEach(func(o uint32) {
			v := prog.ObjValue(ir.Obj(o))
			if v.ObjKind != ir.FuncObj {
				return // calling through a non-function pointer: no-op
			}
			for _, call := range calls {
				s.wireCall(call, v.Func)
			}
		})
	}
}

// collapseCycles finds SCCs of the copy graph and merges each cycle into
// its representative.
func (s *solver) collapseCycles() {
	n := len(s.parent)
	g := graph.New(n)
	for v := 0; v < n; v++ {
		if s.succs[v] == nil || s.find(uint32(v)) != uint32(v) {
			continue
		}
		s.succs[v].ForEach(func(d uint32) {
			d = s.find(d)
			if d != uint32(v) {
				g.AddEdge(uint32(v), d)
			}
		})
	}
	comp, k := g.SCCs()
	repOf := make([]uint32, k)
	for i := range repOf {
		repOf[i] = ^uint32(0)
	}
	for v := 0; v < n; v++ {
		if s.find(uint32(v)) != uint32(v) {
			continue
		}
		c := comp[v]
		if repOf[c] == ^uint32(0) {
			repOf[c] = uint32(v)
			continue
		}
		s.merge(repOf[c], uint32(v))
	}
}

// merge unions node b into representative a.
func (s *solver) merge(a, b uint32) {
	if a == b {
		return
	}
	s.stats.SCCCollapses++
	s.parent[b] = a
	if s.pts[b] != nil {
		s.ptsOf(a).UnionWith(s.pts[b])
		s.pts[b] = nil
	}
	if s.succs[b] != nil {
		if s.succs[a] == nil {
			s.succs[a] = bitset.New()
		}
		s.succs[a].UnionWith(s.succs[b])
		s.succs[b] = nil
	}
	s.loadsAt[a] = append(s.loadsAt[a], s.loadsAt[b]...)
	s.loadsAt[b] = nil
	s.storesAt[a] = append(s.storesAt[a], s.storesAt[b]...)
	s.storesAt[b] = nil
	s.fieldsAt[a] = append(s.fieldsAt[a], s.fieldsAt[b]...)
	s.fieldsAt[b] = nil
	s.icallsAt[a] = append(s.icallsAt[a], s.icallsAt[b]...)
	s.icallsAt[b] = nil
	// Force the merged node to reprocess its whole set: the cheapest
	// sound option after unioning constraint lists.
	s.processed[a] = nil
	s.processed[b] = nil
	s.work.push(a)
}

func (s *solver) finish() *Result {
	s.stats.FinalNodes = len(s.parent)
	s.stats.WorklistHW = s.work.hw
	for v := range s.parent {
		s.parent[v] = s.find(uint32(v))
	}
	return &Result{
		prog:        s.prog,
		rep:         s.parent,
		pts:         s.pts,
		callTargets: s.callTargets,
		Stats:       s.stats,
	}
}
