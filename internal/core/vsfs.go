package core

import (
	"context"
	"slices"
	"time"

	"vsfs/internal/bitset"
	"vsfs/internal/guard"
	"vsfs/internal/ir"
	"vsfs/internal/meld"
	"vsfs/internal/obs"
	"vsfs/internal/svfg"
)

// Stats quantifies the main phase, comparable field-for-field with
// sfs.Stats.
type Stats struct {
	NodesProcessed     int
	Propagations       int // set unions attempted
	Changed            int // unions that grew the target
	PtsSets            int // (object, version) points-to sets, one per non-empty version: the paper's model
	PtsWords           int // 64-bit words backing those sets
	StoredSets         int // distinct sets actually kept for them once frozen
	StoredWords        int // 64-bit words backing the stored sets
	TopLevelWords      int
	CallEdges          int
	VersionProps       int // version-reliance propagations
	VersionConstraints int // pt_κ ⊆ pt_κ' constraints registered
	WorklistHW         int // main-phase worklist high-water mark

	Versioning VersionStats
	SolveTime  time.Duration
}

// Result is the outcome of versioned staged flow-sensitive analysis.
type Result struct {
	Graph *svfg.Graph

	ver *versioning

	// pt[v] is the points-to set of top-level pointer v. Like every set
	// here it holds object numbers.
	pt []*bitset.Sparse

	// ptv[κ] is pt_κ(o), the global points-to set of version κ of its
	// object o; nil until it first grows. A version is a dense
	// (object, version) id: atoms are fresh per prelabel and a meld only
	// combines one object's labels, so every version other than ε
	// belongs to exactly one object.
	ptv []*bitset.Sparse

	callees map[*ir.Instr]map[*ir.Function]bool

	Stats Stats
}

var empty = bitset.New()

// PointsTo returns the flow-sensitive points-to set of a top-level
// pointer; identical to SFS's by the paper's correctness argument.
func (r *Result) PointsTo(v ir.ID) *bitset.Sparse {
	if int(v) < len(r.pt) && r.pt[v] != nil {
		return r.pt[v]
	}
	return empty
}

// CalleesOf returns the flow-sensitively resolved callees of a call,
// ordered by name with ties broken by entry label: names alone are not
// unique (Function.Name is a mutable display string), and sorting map
// keys by a non-unique key leaks map iteration order into the result.
func (r *Result) CalleesOf(call *ir.Instr) []*ir.Function {
	m := r.callees[call]
	out := make([]*ir.Function, 0, len(m))
	for f := range m {
		out = append(out, f)
	}
	sortFuncs(out)
	return out
}

// sortFuncs orders functions by funcLess — a total order, so the
// result is independent of the (randomized) map iteration order the
// callers collect from.
func sortFuncs(fs []*ir.Function) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && funcLess(fs[j], fs[j-1]); j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

// funcLess orders functions by name, then by entry label (unique per
// function once the program is finalized).
func funcLess(a, b *ir.Function) bool {
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	return a.EntryInstr.Label < b.EntryInstr.Label
}

// ObjectSummary returns the union of o's points-to sets over every
// version: everything the object may ever hold.
func (r *Result) ObjectSummary(o ir.Obj) *bitset.Sparse {
	out := bitset.New()
	lo, hi := r.ver.versions(o)
	for _, set := range r.ptv[lo:hi] {
		if set != nil {
			out.UnionWith(set)
		}
	}
	return out
}

// ConsumedSet returns pt_{ξ_ℓ(o)}(o): the points-to set of the version
// of o consumed at ℓ — what an IN-set lookup would return in SFS.
func (r *Result) ConsumedSet(label uint32, o ir.Obj) *bitset.Sparse {
	return r.ptvOf(r.ver.consumeOf(label, o))
}

// YieldedSet returns pt_{η_ℓ(o)}(o).
func (r *Result) YieldedSet(label uint32, o ir.Obj) *bitset.Sparse {
	return r.ptvOf(r.ver.yieldOf(label, o))
}

// ConsumeVersion exposes ξ_ℓ(o) for tests and diagnostics.
func (r *Result) ConsumeVersion(label uint32, o ir.Obj) meld.Version {
	return r.ver.consumeOf(label, o)
}

// YieldVersion exposes η_ℓ(o).
func (r *Result) YieldVersion(label uint32, o ir.Obj) meld.Version {
	return r.ver.yieldOf(label, o)
}

func (r *Result) ptvOf(v meld.Version) *bitset.Sparse {
	if s := r.ptv[v]; s != nil {
		return s
	}
	return empty
}

// Solve runs versioning then the versioned flow-sensitive main phase. It
// mutates g (on-the-fly indirect edges); pass a fresh or cloned graph.
func Solve(g *svfg.Graph) *Result {
	r, _ := SolveContext(context.Background(), g)
	return r
}

// SolveContext is Solve with cancellation: both the meld-labelling
// pass and the main worklist loop poll ctx every cancelCheckInterval
// steps and abort with ctx.Err() when the context is done. A cancelled solve returns no Result; the mutated
// graph must be discarded.
func SolveContext(ctx context.Context, g *svfg.Graph) (*Result, error) {
	sp := obs.StartSpan(ctx, "meld")
	ver, err := runVersioning(ctx, g)
	if err != nil {
		return nil, err
	}
	sp.Arg("prelabels", ver.stats.Prelabels).
		Arg("distinctVersions", ver.stats.DistinctVersions).
		Arg("iterations", ver.stats.Iterations).
		Arg("meldOps", ver.stats.MeldOps).
		End()
	return solveMain(ctx, g, ver)
}

// solveMain runs the main phase over g's versioning ver.
func solveMain(ctx context.Context, g *svfg.Graph, ver *versioning) (*Result, error) {
	sp := obs.StartSpan(ctx, "main")
	start := time.Now()
	nv := ver.stats.DistinctVersions
	s := &state{
		Result: &Result{
			Graph:   g,
			ver:     ver,
			pt:      make([]*bitset.Sparse, g.Prog.NumValues()+1),
			ptv:     make([]*bitset.Sparse, nv),
			callees: make(map[*ir.Instr]map[*ir.Function]bool),
		},
		ctx:          ctx,
		attr:         obs.AttrFrom(ctx),
		verReliance:  make([][]meld.Version, nv),
		stmtReliance: make([][]uint32, nv),
		fsCallers:    make(map[*ir.Function][]uint32),
		work:         worklist{mark: make([]bool, len(g.Prog.Instrs))},
	}
	s.Stats.Versioning = ver.stats
	s.buildReliances()
	if err := s.run(); err != nil {
		return nil, err
	}
	s.Stats.SolveTime = time.Since(start)
	s.Stats.WorklistHW = s.work.hw
	s.collectStats()
	s.freeze()
	sp.Arg("nodesProcessed", s.Stats.NodesProcessed).
		Arg("propagations", s.Stats.Propagations).
		Arg("ptsSets", s.Stats.PtsSets).
		Arg("storedSets", s.Stats.StoredSets).
		Arg("storedWords", s.Stats.StoredWords).
		Arg("worklistHW", s.Stats.WorklistHW).
		End()
	return s.Result, nil
}

// freeze replaces every solved set with its canonical equal set, so
// equal contents share one set: most versions of an object, and many
// top-level pointers, end up with the same points-to set. Canon adopts
// rather than copies, so freezing allocates no set elements and budget
// accounting is unchanged. From here on every set the Result hands out
// may be shared and must never be mutated.
func (s *state) freeze() {
	in := bitset.NewInterner()
	for v, set := range s.ptv {
		if set != nil {
			s.ptv[v] = in.Canon(set)
		}
	}
	// ID 0 is the interner's empty set, which no version holds.
	for id := 1; id < in.Len(); id++ {
		s.Stats.StoredSets++
		s.Stats.StoredWords += in.Get(uint32(id)).Words()
	}
	for v, set := range s.pt {
		if set != nil {
			s.pt[v] = in.Canon(set)
		}
	}
}

// cancelCheckInterval is how many steps — worklist pops, or (node,
// object) visits in meld labelling — pass between context polls in
// this package's loops.
const cancelCheckInterval = 1024

type state struct {
	*Result

	ctx context.Context

	// attr charges solver work to owning objects, by value ID (see
	// owner); nil (a no-op receiver) when attribution is off, so the hot
	// path pays one predicted branch per event. Charging follows the
	// conservation rule: every Stats increment pairs with exactly one
	// attr charge, with ID 0 as the bucket for top-level (objectless)
	// work.
	attr *obs.ObjectAttr

	// verReliance[κ] lists versions κ' with pt_κ(o) ⊆ pt_κ'(o), derived
	// from indirect edges whose endpoints carry different versions
	// ([A-PROP]^F reduced to version constraints).
	verReliance [][]meld.Version

	// stmtReliance[κ] lists nodes to reprocess when pt_κ(o) grows: loads
	// that consume it and stores whose weak update consumes it.
	stmtReliance [][]uint32

	fsCallers map[*ir.Function][]uint32

	work worklist
}

// owner returns the value ID attribution charges object o's work to.
func (s *state) owner(o ir.Obj) uint32 { return uint32(s.Graph.Prog.ObjID(o)) }

// buildReliances turns every static indirect edge into a version
// constraint and registers statement reliances for loads and stores.
func (s *state) buildReliances() {
	g := s.Graph
	prog := g.Prog
	for l := uint32(1); l < uint32(len(prog.Instrs)); l++ {
		lo, hi := g.SlotRange(l)
		// Edge-derived version constraints.
		for sl := lo; sl < hi; sl++ {
			if yv := s.ver.yield[sl]; yv != meld.Epsilon {
				for _, t := range g.SlotSuccs(sl) {
					s.addVerConstraint(yv, s.ver.consume[t])
				}
			}
		}
		// A load's slots are its μ, a store's its χ.
		if op := prog.Instrs[l].Op; op == ir.Load || op == ir.Store {
			for sl := lo; sl < hi; sl++ {
				s.addStmtReliance(s.ver.consume[sl], l)
			}
		}
	}
}

func (s *state) addVerConstraint(from, to meld.Version) {
	if from == to || from == meld.Epsilon {
		return
	}
	if !slices.Contains(s.verReliance[from], to) {
		s.verReliance[from] = append(s.verReliance[from], to)
	}
}

func (s *state) addStmtReliance(v meld.Version, l uint32) {
	if v == meld.Epsilon {
		// pt_ε is permanently empty; no reprocessing can arise from it.
		return
	}
	if !slices.Contains(s.stmtReliance[v], l) {
		s.stmtReliance[v] = append(s.stmtReliance[v], l)
	}
}

func (s *state) ptOf(v ir.ID) *bitset.Sparse {
	if int(v) >= len(s.pt) {
		grown := make([]*bitset.Sparse, s.Graph.Prog.NumValues()+1)
		copy(grown, s.pt)
		s.pt = grown
	}
	if s.pt[v] == nil {
		s.pt[v] = bitset.New()
	}
	return s.pt[v]
}

func (s *state) ptvSet(v meld.Version) *bitset.Sparse {
	set := s.ptv[v]
	if set == nil {
		set = bitset.New()
		s.ptv[v] = set
	}
	return set
}

// addPt unions src into pt(v), rescheduling users on change.
func (s *state) addPt(v ir.ID, src *bitset.Sparse) {
	s.Stats.Propagations++
	s.attr.Prop(0)
	if s.ptOf(v).UnionWith(src) {
		s.Stats.Changed++
		for _, u := range s.Graph.UsersOf(v) {
			s.work.push(u)
		}
	}
}

// growVersion unions src into pt_κ(o) and, on change, propagates to
// reliant versions (transitively) and reschedules reliant statements.
func (s *state) growVersion(o ir.Obj, v meld.Version, src *bitset.Sparse) {
	if src.IsEmpty() || v == meld.Epsilon {
		return
	}
	s.Stats.Propagations++
	s.attr.Prop(s.owner(o))
	if !s.ptvSet(v).UnionWith(src) {
		return
	}
	s.Stats.Changed++
	queue := []meld.Version{v}
	//vsfs:lint-ignore guardtick version cascade is finite (monotone sets over prelabelled versions) and metered at the next run checkpoint; see DESIGN §14
	for len(queue) > 0 {
		cur := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, l := range s.stmtReliance[cur] {
			s.work.push(l)
		}
		set := s.ptv[cur]
		for _, to := range s.verReliance[cur] {
			s.Stats.Propagations++
			s.Stats.VersionProps++
			s.attr.Prop(s.owner(o))
			if s.ptvSet(to).UnionWith(set) {
				s.Stats.Changed++
				queue = append(queue, to)
			}
		}
	}
}

func (s *state) run() error {
	prog := s.Graph.Prog
	for l := 1; l < len(prog.Instrs); l++ {
		s.work.push(uint32(l))
	}
	for steps := 0; ; steps++ {
		if steps%cancelCheckInterval == 0 {
			if err := guard.Tick(s.ctx, "solve", cancelCheckInterval); err != nil {
				return err
			}
		}
		l, ok := s.work.pop()
		if !ok {
			return nil
		}
		s.Stats.NodesProcessed++
		in := prog.Instrs[l]
		s.attr.Pop(popOwner(s.Graph, in))
		s.process(in)
	}
}

// popOwner charges a worklist pop to the object whose memory state the
// node manipulates: the smallest χ'd object for stores, the smallest
// μ'd object for loads, the unattributed bucket for pure top-level
// nodes. Shared rule with internal/sfs so per-backend attribution is
// comparable.
func popOwner(g *svfg.Graph, in *ir.Instr) uint32 {
	switch in.Op {
	case ir.Store:
		if chi := g.MSSA.ChiOf(in.Label); !chi.IsEmpty() {
			return uint32(g.Prog.ObjID(ir.Obj(chi.Min())))
		}
	case ir.Load:
		if mu := g.MSSA.MuOf(in.Label); !mu.IsEmpty() {
			return uint32(g.Prog.ObjID(ir.Obj(mu.Min())))
		}
	}
	return 0
}

// process applies the rules of Figure 10. Identity nodes (MEMPHI,
// CallRet, FUNENTRY, FUNEXIT) need no object work at all: their version
// flow was folded into version constraints — that is VSFS's saving.
func (s *state) process(in *ir.Instr) {
	g := s.Graph
	switch in.Op {
	case ir.Alloc:
		s.Stats.Propagations++
		s.attr.Prop(0)
		if s.ptOf(in.Def).Set(uint32(g.Prog.ObjNum(in.Obj))) {
			s.Stats.Changed++
			for _, u := range g.UsersOf(in.Def) {
				s.work.push(u)
			}
		}

	case ir.Copy:
		s.addPt(in.Def, s.ptOf(in.Uses[0]))

	case ir.Phi:
		for _, u := range in.Uses {
			s.addPt(in.Def, s.ptOf(u))
		}

	case ir.Field:
		prog := g.Prog
		add := bitset.New()
		s.ptOf(in.Uses[0]).ForEach(func(o uint32) {
			if prog.ObjValue(ir.Obj(o)).ObjKind == ir.FuncObj {
				return
			}
			add.Set(uint32(prog.ObjNum(prog.FieldObj(prog.ObjID(ir.Obj(o)), in.Off))))
		})
		s.addPt(in.Def, add)

	case ir.Load:
		// [LOAD]^F: pt(p) ⊇ pt_{ξ_ℓ(o)}(o) for each o ∈ pt(q).
		l := in.Label
		s.ptOf(in.Uses[0]).Clone().ForEach(func(o uint32) {
			s.addPt(in.Def, s.ConsumedSet(l, ir.Obj(o)))
		})

	case ir.Store:
		s.processStore(in)

	case ir.Call:
		s.processCall(in)

	case ir.FunExit:
		for _, c := range s.fsCallers[in.Parent] {
			s.work.push(c)
		}
	}
}

// processStore applies [STORE]^F and [SU/WU]^F: pt_{η(o)} gains pt(q)
// for stored-to objects, and the consumed version's set unless a strong
// update kills it; χ'd objects not pointed to by p pass through. The
// strong-update predicate uses the auxiliary points-to set of p so that
// SFS and VSFS are least fixpoints of identical monotone equations (see
// the matching comment in internal/sfs).
func (s *state) processStore(in *ir.Instr) {
	g := s.Graph
	l := in.Label
	p, q := in.Uses[0], in.Uses[1]
	ptp := s.ptOf(p)
	ptq := s.ptOf(q)

	strong := false
	if single, ok := g.Aux.PointsTo(p).Single(); ok && g.IsSingleton(ir.Obj(single)) {
		strong = true
	}

	// A store's slots are its χ.
	lo, hi := g.SlotRange(l)
	for sl := lo; sl < hi; sl++ {
		o := g.SlotObj(sl)
		yv := s.ver.yield[sl]
		if strong {
			s.growVersion(o, yv, ptq)
			continue
		}
		s.growVersion(o, yv, s.ptvOf(s.ver.consume[sl]))
		if ptp.Has(uint32(o)) {
			s.growVersion(o, yv, ptq)
		}
	}
}

// processCall wires top-level flow and performs on-the-fly call-graph
// resolution, adding version constraints for the new interprocedural
// edges into the δ nodes' prelabelled consume versions.
func (s *state) processCall(in *ir.Instr) {
	g := s.Graph
	if in.Callee != nil {
		s.wireCallee(in, in.Callee)
		return
	}
	if g.Prewired {
		// Ablation mode: the auxiliary call graph was wired at build
		// time; resolve targets from it instead of flow-sensitive
		// function-pointer values.
		for _, callee := range g.Aux.CalleesOf(in) {
			s.wireCallee(in, callee)
		}
		return
	}
	prog := g.Prog
	s.ptOf(in.CalleePtr()).Clone().ForEach(func(o uint32) {
		v := prog.ObjValue(ir.Obj(o))
		if v.ObjKind == ir.FuncObj {
			s.wireCallee(in, v.Func)
		}
	})
}

func (s *state) wireCallee(call *ir.Instr, callee *ir.Function) {
	g := s.Graph
	m := s.callees[call]
	if m == nil {
		m = make(map[*ir.Function]bool)
		s.callees[call] = m
	}
	if !m[callee] {
		m[callee] = true
		s.Stats.CallEdges++
		s.fsCallers[callee] = append(s.fsCallers[callee], call.Label)

		g.MSSA.CallChains(call, callee, func(from, to int) {
			if g.AddSlotEdge(from, to) {
				y, c := s.ver.yield[from], s.ver.consume[to]
				s.addVerConstraint(y, c)
				s.growVersion(g.SlotObj(from), c, s.ptvOf(y))
			}
		})
		s.work.push(callee.EntryInstr.Label)
	}

	args := call.CallArgs()
	for i, a := range args {
		if i >= len(callee.Params) {
			break
		}
		s.addPt(callee.Params[i], s.ptOf(a))
	}
	if call.Def != ir.None && callee.Ret != ir.None {
		s.addPt(call.Def, s.ptOf(callee.Ret))
	}
}

func (s *state) collectStats() {
	for _, targets := range s.verReliance {
		s.Stats.VersionConstraints += len(targets)
	}
	for o := range len(s.ver.first) - 1 {
		lo, hi := s.ver.versions(ir.Obj(o))
		for _, set := range s.ptv[lo:hi] {
			if set != nil {
				s.Stats.PtsSets++
				s.Stats.PtsWords += set.Words()
				s.attr.Set(s.owner(ir.Obj(o)))
			}
		}
	}
	for _, set := range s.pt {
		if set != nil {
			s.Stats.TopLevelWords += set.Words()
		}
	}
}
