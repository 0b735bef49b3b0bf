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
// It is the repository's one inclusion-constraint engine: Solve runs it
// for the CFG-free backend (internal/cfgfree) too, whose strong-update
// windows enter as data, a replacement load rule for the (load, object)
// pairs they cover.
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
	"vsfs/internal/obs"
)

// Stats reports solver effort, used by the benchmark harness.
type Stats struct {
	Pops         int // worklist pops with a non-empty delta
	Propagations int // copy-edge propagations that changed a set
	SCCCollapses int // nodes merged by cycle elimination
	FinalNodes   int // value-ID space size at fixpoint
	WorklistHW   int // worklist high-water mark

	Store bitset.StoreStats // the solve's set store
}

// Result is the outcome of the auxiliary analysis. It is immutable once
// returned and safe for concurrent queries; callers must not mutate the
// points-to sets it hands out.
type Result struct {
	prog *ir.Program

	// rep[v] is the node whose set v shares after cycle elimination:
	// every node points straight at its representative, so a query is
	// one read and never writes. pts[n] is node n's set, nil when empty;
	// equal sets are one shared set.
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

// Rep returns the node whose set v shares after cycle elimination.
// Nodes with one Rep share their set by construction; nodes with equal
// sets share one set too, whatever their Rep.
func (r *Result) Rep(v ir.ID) ir.ID {
	if int(v) < len(r.rep) {
		return ir.ID(r.rep[v])
	}
	return v
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
	r, _, err := Solve(ctx, prog, "andersen", nil, nil)
	return r, err
}

// Solve runs the inclusion-constraint engine to fixpoint, charging its
// steps to guard phase phase. For the load defining def and an object
// o of its base pointer's set, window(def, o), when it reports ok,
// lists the values whose sets the load copies instead of o's contents;
// a nil window
// gives Andersen's load rule. A non-nil attr is charged every pop and
// attempted propagation, each to the node's object (bucket 0 for a
// top-level pointer). Besides the result, Solve returns the number of
// propagations attempted; Stats.Propagations counts those that changed
// a set.
func Solve(ctx context.Context, prog *ir.Program, phase string,
	window func(def ir.ID, o ir.Obj) ([]ir.ID, bool), attr *obs.ObjectAttr) (*Result, int, error) {
	s := &solver{
		prog:        prog,
		ctx:         ctx,
		phase:       phase,
		window:      window,
		attr:        attr,
		resolved:    make(map[callTarget]bool),
		callTargets: make(map[*ir.Instr][]*ir.Function),
		work:        graph.NewWorklist(prog.NumValues() + 1),
		sets:        bitset.NewStore(),
	}
	s.generate()
	if err := s.solve(); err != nil {
		return nil, 0, err
	}
	return s.finish(), s.attempted, nil
}

// cancelCheckInterval is how many worklist iterations pass between
// context polls in the solver loops of this package.
const cancelCheckInterval = 1024

// solver is the mutable analysis state.
type solver struct {
	prog  *ir.Program
	ctx   context.Context
	phase string

	// pts[n] and processed[n] are IDs in sets, the solve's store:
	// node n's points-to set and the part of it its complex constraints
	// and copy edges have seen (a subset of pts[n]).
	sets      *bitset.Store
	parent    []uint32
	pts       []uint32
	processed []uint32
	succs     []*bitset.Sparse // copy edges, as successor bitsets
	succWords int              // the words succs grew by, merged-away rows included

	// Complex constraints, indexed by the (representative of the)
	// pointer whose points-to set drives them.
	loadsAt  [][]ir.ID     // q → defs p of "p = *q"
	storesAt [][]ir.ID     // p → sources q of "*p = q"
	fieldsAt [][]fieldUse  // q → (def, off) of "p = &q->f"
	icallsAt [][]*ir.Instr // fp → indirect calls through fp

	// resolved tracks (call label, callee) pairs already wired.
	resolved map[callTarget]bool

	callTargets map[*ir.Instr][]*ir.Function

	window func(def ir.ID, o ir.Obj) ([]ir.ID, bool)
	attr   *obs.ObjectAttr

	work graph.Worklist

	// meter charges the budget with the storage of sets and succs.
	meter guard.Meter

	stats     Stats
	pops      int
	attempted int
}

type fieldUse struct {
	def ir.ID
	off int
}

type callTarget struct {
	call *ir.Instr
	fn   *ir.Function
}

// owner maps a constraint node to the object charged for its work: the
// node itself when it is an object, the unattributed bucket 0 otherwise.
func (s *solver) owner(n uint32) uint32 {
	if int(n) < s.prog.NumValues() && s.prog.IsObject(ir.ID(n)) {
		return n
	}
	return 0
}

// ensure grows the per-node tables to cover id (field objects are created
// during solving, so the ID space grows).
func (s *solver) ensure(id uint32) {
	//vsfs:lint-ignore guardtick growth is bounded by the node-ID space; the pop that created the id was charged at the run checkpoint
	for uint32(len(s.parent)) <= id {
		s.parent = append(s.parent, uint32(len(s.parent)))
		s.pts = append(s.pts, 0)
		s.processed = append(s.processed, 0)
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

// addPts inserts obj into pts(n) and schedules n on change.
func (s *solver) addPts(n uint32, obj ir.Obj) {
	n = s.find(n)
	if p := s.sets.Insert(s.pts[n], uint32(obj)); p != s.pts[n] {
		s.pts[n] = p
		s.work.Push(n)
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
	words := s.succs[c].Words()
	if !s.succs[c].Set(d) {
		return
	}
	s.succWords += s.succs[c].Words() - words
	if s.pts[c] != 0 {
		s.propagate(d, s.pts[c])
	}
}

// propagate unions set into pts(d), scheduling d on change.
func (s *solver) propagate(d, set uint32) {
	s.attempted++
	if s.attr != nil {
		s.attr.Prop(s.owner(d))
	}
	if p := s.sets.Union(s.pts[d], set); p != s.pts[d] {
		s.pts[d] = p
		s.stats.Propagations++
		s.work.Push(d)
	}
}

// generate installs the base and complex constraints for every
// instruction. MEMPHI and CallRet markers, present when the CFG-free
// backend solves a program the memory-SSA pass has been through,
// generate nothing: their clobber role is folded into its windows.
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
	s.processed[n] = 0
	if s.pts[n] != 0 {
		s.work.Push(n)
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
			bytes := int64(s.sets.Words()+s.succWords) * bitset.WordBytes
			if err := s.meter.Tick(s.ctx, s.phase, cancelCheckInterval, bytes); err != nil {
				return err
			}
		}
		n, ok := s.work.Pop()
		if !ok {
			break
		}
		n = s.find(n)
		delta := s.sets.Diff(s.pts[n], s.processed[n])
		if delta == 0 {
			continue
		}
		// processed ⊆ pts, so processed ∪ delta is pts.
		s.processed[n] = s.pts[n]
		s.stats.Pops++
		if s.attr != nil {
			s.attr.Pop(s.owner(n))
		}

		s.applyComplex(n, s.sets.Get(delta))

		// Propagate the delta along copy edges.
		if s.succs[n] != nil {
			s.succs[n].ForEach(func(d32 uint32) {
				if d := s.find(d32); d != n {
					s.propagate(d, delta)
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
// are the node named by its value ID. delta is a stored set, so the
// rules may grow any points-to set while they walk it.
func (s *solver) applyComplex(n uint32, delta *bitset.Sparse) {
	prog := s.prog
	for _, def := range s.loadsAt[n] {
		delta.ForEach(func(o uint32) {
			if s.window != nil {
				if vals, ok := s.window(def, ir.Obj(o)); ok {
					for _, val := range vals {
						s.addCopy(def, val) // pts(def) ⊇ pts(val)
					}
					return
				}
			}
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
// its lowest node, the others in ascending order.
func (s *solver) collapseCycles() {
	n := len(s.parent)
	g := graph.BuildCSR(n, n, func(emit func(v, d uint32)) {
		for v := range uint32(n) {
			if s.succs[v] == nil || s.find(v) != v {
				continue
			}
			s.succs[v].ForEach(func(d uint32) {
				if d = s.find(d); d != v {
					emit(v, d)
				}
			})
		}
	})
	comps, _ := graph.SCC(&g, nil)
	lowest := make([]uint32, n) // 1 + the lowest node of the component rooted here; 0 = none yet
	for v := range uint32(n) {
		if s.find(v) != v {
			continue
		}
		r := comps.Rep[v]
		if lowest[r] == 0 {
			lowest[r] = v + 1
			continue
		}
		s.merge(lowest[r]-1, v)
	}
}

// merge unions node b into representative a.
func (s *solver) merge(a, b uint32) {
	if a == b {
		return
	}
	s.stats.SCCCollapses++
	s.parent[b] = a
	s.pts[a] = s.sets.Union(s.pts[a], s.pts[b])
	s.pts[b] = 0
	if s.succs[b] != nil {
		if s.succs[a] == nil {
			s.succs[a] = bitset.New()
		}
		words := s.succs[a].Words()
		s.succs[a].UnionWith(s.succs[b])
		s.succWords += s.succs[a].Words() - words
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
	s.processed[a] = 0
	s.processed[b] = 0
	s.work.Push(a)
}

func (s *solver) finish() *Result {
	s.stats.FinalNodes = len(s.parent)
	s.stats.WorklistHW = s.work.HighWater()
	s.stats.Store = s.sets.Stats()
	for v := range s.parent {
		s.parent[v] = s.find(uint32(v))
	}
	return &Result{
		prog:        s.prog,
		rep:         s.parent,
		pts:         s.sets.Sets(s.pts),
		callTargets: s.callTargets,
		Stats:       s.stats,
	}
}
