package core

import (
	"context"
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
	PtsSets            int // distinct (object, version) points-to sets stored
	PtsWords           int // 64-bit words backing those sets
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

	pt []*bitset.Sparse // top-level points-to sets

	// ptv[o][κ] is pt_κ(o), the global points-to set of version κ of
	// object o. Keyed by object first so one object's versions (all
	// that ObjectSummary reads) sit together; nil for objects with none.
	ptv []map[meld.Version]*bitset.Sparse

	callees map[*ir.Instr]map[*ir.Function]bool

	Stats Stats
}

type verKey struct {
	obj ir.ID
	ver meld.Version
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
func (r *Result) ObjectSummary(o ir.ID) *bitset.Sparse {
	out := bitset.New()
	if int(o) < len(r.ptv) {
		for _, set := range r.ptv[o] {
			out.UnionWith(set)
		}
	}
	return out
}

// ConsumedSet returns pt_{ξ_ℓ(o)}(o): the points-to set of the version
// of o consumed at ℓ — what an IN-set lookup would return in SFS.
func (r *Result) ConsumedSet(label uint32, o ir.ID) *bitset.Sparse {
	return r.ptvOf(o, r.ver.consumeOf(label, o))
}

// YieldedSet returns pt_{η_ℓ(o)}(o).
func (r *Result) YieldedSet(label uint32, o ir.ID) *bitset.Sparse {
	return r.ptvOf(o, r.ver.yieldOf(label, o))
}

// ConsumeVersion exposes ξ_ℓ(o) for tests and diagnostics.
func (r *Result) ConsumeVersion(label uint32, o ir.ID) meld.Version {
	return r.ver.consumeOf(label, o)
}

// YieldVersion exposes η_ℓ(o).
func (r *Result) YieldVersion(label uint32, o ir.ID) meld.Version {
	return r.ver.yieldOf(label, o)
}

func (r *Result) ptvOf(o ir.ID, v meld.Version) *bitset.Sparse {
	if int(o) < len(r.ptv) {
		if s := r.ptv[o][v]; s != nil {
			return s
		}
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
	attr := obs.AttrFrom(ctx)
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
	s := &state{
		Result: &Result{
			Graph:   g,
			ver:     ver,
			pt:      make([]*bitset.Sparse, g.Prog.NumValues()+1),
			ptv:     make([]map[meld.Version]*bitset.Sparse, g.Prog.NumValues()+1),
			callees: make(map[*ir.Instr]map[*ir.Function]bool),
		},
		ctx:          ctx,
		attr:         attr,
		verReliance:  make(map[verKey][]meld.Version),
		stmtReliance: make(map[verKey][]uint32),
		fsCallers:    make(map[*ir.Function][]uint32),
	}
	s.Stats.Versioning = ver.stats
	sp = obs.StartSpan(ctx, "main")
	start := time.Now()
	s.buildReliances()
	if err := s.run(); err != nil {
		return nil, err
	}
	s.Stats.SolveTime = time.Since(start)
	s.Stats.WorklistHW = s.work.hw
	s.collectStats()
	sp.Arg("nodesProcessed", s.Stats.NodesProcessed).
		Arg("propagations", s.Stats.Propagations).
		Arg("ptsSets", s.Stats.PtsSets).
		Arg("worklistHW", s.Stats.WorklistHW).
		End()
	return s.Result, nil
}

// cancelCheckInterval is how many steps — worklist pops, or (node,
// object) visits in meld labelling — pass between context polls in
// this package's loops.
const cancelCheckInterval = 1024

type state struct {
	*Result

	ctx context.Context

	// attr charges solver work to owning objects; nil (a no-op
	// receiver) when attribution is off, so the hot path pays one
	// predicted branch per event. Charging follows the conservation
	// rule: every Stats increment pairs with exactly one attr charge,
	// with object 0 as the bucket for top-level (objectless) work.
	attr *obs.ObjectAttr

	// verReliance[(o, κ)] lists versions κ' with pt_κ(o) ⊆ pt_κ'(o),
	// derived from indirect edges whose endpoints carry different
	// versions ([A-PROP]^F reduced to version constraints).
	verReliance map[verKey][]meld.Version

	// stmtReliance[(o, κ)] lists nodes to reprocess when pt_κ(o) grows:
	// loads that consume it and stores whose weak update consumes it.
	stmtReliance map[verKey][]uint32

	fsCallers map[*ir.Function][]uint32

	work worklist
}

// buildReliances turns every static indirect edge into a version
// constraint and registers statement reliances for loads and stores.
func (s *state) buildReliances() {
	g := s.Graph
	prog := g.Prog
	for l := uint32(1); l < uint32(len(prog.Instrs)); l++ {
		// Edge-derived version constraints.
		if ym := s.ver.yield[l]; ym != nil {
			for o, yv := range ym {
				for _, succ := range g.IndirSuccs(l, o) {
					s.addVerConstraint(o, yv, s.ver.consumeOf(succ, o))
				}
			}
		}
		in := prog.Instrs[l]
		switch in.Op {
		case ir.Load:
			g.MSSA.MuOf(l).ForEach(func(o uint32) {
				s.addStmtReliance(ir.ID(o), s.ver.consumeOf(l, ir.ID(o)), l)
			})
		case ir.Store:
			g.MSSA.ChiOf(l).ForEach(func(o uint32) {
				s.addStmtReliance(ir.ID(o), s.ver.consumeOf(l, ir.ID(o)), l)
			})
		}
	}
}

func (s *state) addVerConstraint(o ir.ID, from, to meld.Version) {
	if from == to || from == meld.Epsilon {
		return
	}
	key := verKey{obj: o, ver: from}
	for _, t := range s.verReliance[key] {
		if t == to {
			return
		}
	}
	s.verReliance[key] = append(s.verReliance[key], to)
}

func (s *state) addStmtReliance(o ir.ID, v meld.Version, l uint32) {
	if v == meld.Epsilon {
		// pt_ε is permanently empty; no reprocessing can arise from it.
		return
	}
	key := verKey{obj: o, ver: v}
	for _, t := range s.stmtReliance[key] {
		if t == l {
			return
		}
	}
	s.stmtReliance[key] = append(s.stmtReliance[key], l)
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

func (s *state) ptvSet(o ir.ID, v meld.Version) *bitset.Sparse {
	if int(o) >= len(s.ptv) {
		grown := make([]map[meld.Version]*bitset.Sparse, s.Graph.Prog.NumValues()+1)
		copy(grown, s.ptv)
		s.ptv = grown
	}
	m := s.ptv[o]
	if m == nil {
		m = make(map[meld.Version]*bitset.Sparse)
		s.ptv[o] = m
	}
	set := m[v]
	if set == nil {
		set = bitset.New()
		m[v] = set
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
func (s *state) growVersion(o ir.ID, v meld.Version, src *bitset.Sparse) {
	if src.IsEmpty() || v == meld.Epsilon {
		return
	}
	type item struct {
		ver meld.Version
	}
	s.Stats.Propagations++
	s.attr.Prop(uint32(o))
	if !s.ptvSet(o, v).UnionWith(src) {
		return
	}
	s.Stats.Changed++
	queue := []item{{ver: v}}
	//vsfs:lint-ignore guardtick version cascade is finite (monotone sets over prelabelled versions) and metered at the next run checkpoint; see DESIGN §14
	for len(queue) > 0 {
		it := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		key := verKey{obj: o, ver: it.ver}
		for _, l := range s.stmtReliance[key] {
			s.work.push(l)
		}
		cur := s.ptv[o][it.ver]
		for _, to := range s.verReliance[key] {
			s.Stats.Propagations++
			s.Stats.VersionProps++
			s.attr.Prop(uint32(o))
			if s.ptvSet(o, to).UnionWith(cur) {
				s.Stats.Changed++
				queue = append(queue, item{ver: to})
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
			return chi.Min()
		}
	case ir.Load:
		if mu := g.MSSA.MuOf(in.Label); !mu.IsEmpty() {
			return mu.Min()
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
		if s.ptOf(in.Def).Set(uint32(in.Obj)) {
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
			if prog.Value(ir.ID(o)).ObjKind == ir.FuncObj {
				return
			}
			add.Set(uint32(prog.FieldObj(ir.ID(o), in.Off)))
		})
		s.addPt(in.Def, add)

	case ir.Load:
		// [LOAD]^F: pt(p) ⊇ pt_{ξ_ℓ(o)}(o) for each o ∈ pt(q).
		l := in.Label
		s.ptOf(in.Uses[0]).Clone().ForEach(func(o uint32) {
			s.addPt(in.Def, s.ConsumedSet(l, ir.ID(o)))
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
	if single, ok := g.Aux.PointsTo(p).Single(); ok && g.IsSingleton(ir.ID(single)) {
		strong = true
	}

	g.MSSA.ChiOf(l).ForEach(func(o32 uint32) {
		o := ir.ID(o32)
		yv := s.ver.yieldOf(l, o)
		if strong {
			s.growVersion(o, yv, ptq)
			return
		}
		s.growVersion(o, yv, s.ConsumedSet(l, o))
		if ptp.Has(o32) {
			s.growVersion(o, yv, ptq)
		}
	})
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
		v := prog.Value(ir.ID(o))
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

		entry := callee.EntryInstr.Label
		g.MSSA.FormalIn[callee].ForEach(func(o32 uint32) {
			o := ir.ID(o32)
			if !g.MSSA.MuOf(call.Label).Has(o32) {
				return
			}
			if g.AddIndirectEdge(call.Label, entry, o) {
				from := s.ver.yieldOf(call.Label, o)
				to := s.ver.consumeOf(entry, o)
				s.addVerConstraint(o, from, to)
				s.growVersion(o, to, s.ptvOf(o, from))
			}
		})
		if ret := g.MSSA.CallRets[call]; ret != nil {
			exit := callee.ExitInstr.Label
			g.MSSA.FormalOut[callee].ForEach(func(o32 uint32) {
				o := ir.ID(o32)
				if !g.MSSA.ChiOf(ret.Label).Has(o32) {
					return
				}
				if g.AddIndirectEdge(exit, ret.Label, o) {
					from := s.ver.yieldOf(exit, o)
					to := s.ver.consumeOf(ret.Label, o)
					s.addVerConstraint(o, from, to)
					s.growVersion(o, to, s.ptvOf(o, from))
				}
			})
		}
		s.work.push(entry)
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
	for o, m := range s.ptv {
		for _, set := range m {
			s.Stats.PtsSets++
			s.Stats.PtsWords += set.Words()
			s.attr.Set(uint32(o))
		}
	}
	for _, set := range s.pt {
		if set != nil {
			s.Stats.TopLevelWords += set.Words()
		}
	}
}
