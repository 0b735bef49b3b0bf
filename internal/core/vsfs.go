package core

import (
	"context"
	"time"

	"vsfs/internal/bitset"
	"vsfs/internal/graph"
	"vsfs/internal/guard"
	"vsfs/internal/ir"
	"vsfs/internal/meld"
	"vsfs/internal/obs"
	"vsfs/internal/sfs"
	"vsfs/internal/svfg"
)

// Stats quantifies the main phase, comparable field-for-field with
// sfs.Stats.
type Stats struct {
	sfs.EngineStats
	PtsSets            int // (object, version) points-to sets, one per non-empty version: the paper's model
	PtsWords           int // 64-bit words backing those sets
	StoredSets         int // distinct sets actually kept for them
	StoredWords        int // 64-bit words backing the stored sets
	VersionProps       int // version-reliance propagations
	VersionConstraints int // pt_κ ⊆ pt_κ' constraints registered

	Versioning VersionStats
	SolveTime  time.Duration
}

// Result is the outcome of versioned staged flow-sensitive analysis. Its
// top-level half, identical to SFS's by the paper's correctness
// argument, is the engine's.
type Result struct {
	sfs.TopLevel

	ver *versioning

	// ptv[κ] is pt_κ(o), the global points-to set of version κ of its
	// object o; nil when empty. A version is a dense (object, version)
	// id: atoms are fresh per prelabel and a meld only combines one
	// object's labels, so every version other than ε belongs to exactly
	// one object. Equal sets are one shared set.
	ptv []*bitset.Sparse

	// summary[o] is ObjectSummary(o), nil when empty.
	summary []*bitset.Sparse

	Stats Stats
}

var empty = bitset.New()

// ObjectSummary returns the union of o's points-to sets over every
// version: everything the object may ever hold.
func (r *Result) ObjectSummary(o ir.Obj) *bitset.Sparse {
	if int(o) < len(r.summary) && r.summary[o] != nil {
		return r.summary[o]
	}
	return empty
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
// pass and the main worklist loop poll ctx periodically and abort with
// ctx.Err() when the context is done. A cancelled solve returns no
// Result; the mutated graph must be discarded.
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

// solveMain runs the main phase over g's versioning ver. Right after
// the static reliances are built, every strongly connected component of
// the version-reliance graph collapses to one representative version:
// pt_κ ⊆ pt_κ' around a cycle makes every member's set equal, so the
// solve keeps, reads and writes only the representative's.
func solveMain(ctx context.Context, g *svfg.Graph, ver *versioning) (*Result, error) {
	sp := obs.StartSpan(ctx, "main")
	start := time.Now()
	s := newState(ctx, g, ver)
	if err := s.condense(s.staticReliances()); err != nil {
		return nil, err
	}
	if err := s.e.Run(s); err != nil {
		return nil, err
	}
	s.finish(start)
	sp.Arg("nodesProcessed", s.Stats.NodesProcessed).
		Arg("propagations", s.Stats.Propagations).
		Arg("ptsSets", s.Stats.PtsSets).
		Arg("storedSets", s.Stats.StoredSets).
		Arg("storedWords", s.Stats.StoredWords).
		Arg("storeSets", s.Stats.Store.Sets).
		Arg("memoHits", s.Stats.Store.MemoHits).
		Arg("memoMisses", s.Stats.Store.MemoMisses).
		Arg("worklistHW", s.Stats.WorklistHW).
		Arg("versionSCCs", s.versionSCCs).
		Arg("collapsedVersions", s.collapsedVersions).
		End()
	return s.Result, nil
}

func newState(ctx context.Context, g *svfg.Graph, ver *versioning) *state {
	nv := ver.stats.DistinctVersions
	r := &Result{ver: ver}
	r.Stats.Versioning = ver.stats
	s := &state{
		Result: r,
		ctx:    ctx,
		attr:   obs.AttrFrom(ctx),
		pts:    make([]uint32, nv),
		extra:  overflow{head: make([]int32, nv)},
	}
	s.e = sfs.NewEngine(ctx, g, &r.TopLevel, &r.Stats.EngineStats)
	return s
}

// finish ends a solve: every collapsed version's set becomes its
// representative's, the sets are counted, and the Result gets them and
// each object's summary, the union of its versions' sets. SolveTime
// includes the constraint count, which walks the wired chains again.
func (s *state) finish(start time.Time) {
	for v, r := range s.rep {
		if r != meld.Version(v) {
			s.pts[v] = s.pts[r]
		}
	}
	s.countVersionConstraints()
	s.Stats.SolveTime = time.Since(start)
	s.collectStats()
	sets := s.e.Sets
	summary := make([]uint32, len(s.ver.first)-1)
	for o := range summary {
		lo, hi := s.ver.versions(ir.Obj(o))
		for _, id := range s.pts[lo:hi] {
			summary[o] = sets.Union(summary[o], id)
		}
	}
	s.summary = sets.Sets(summary)
	s.ptv = sets.Sets(s.pts)
	s.Stats.Store = sets.Stats()
}

// cancelCheckInterval is how many steps — (node, object) visits in meld
// labelling, or vertex visits in the reliance collapse — pass between
// context polls in this package's loops.
const cancelCheckInterval = 1024

// state is VSFS's memory side of the engine e: one points-to set per
// (object, version), with the version reliances that move them.
type state struct {
	*Result
	e sfs.Engine

	// pts[κ] is pt_κ(o) as an ID in the engine's store; the solve reads
	// and writes only representatives' (see rep).
	pts []uint32

	ctx context.Context

	// attr charges solver work to owning objects, by value ID (see
	// owner); nil (a no-op receiver) when attribution is off. Every
	// Stats increment pairs with exactly one attr charge.
	attr *obs.ObjectAttr

	// static row κ lists the versions κ' with pt_κ(o) ⊆ pt_κ'(o) that
	// static indirect edges imply.
	static graph.CSR

	// rep[κ] is the representative of κ's strongly connected component
	// in static. The solve reads and writes only representatives' sets.
	// verReliance is static condensed onto representatives.
	// stmtReliance row r lists the nodes to reprocess when pt_r grows:
	// loads that consume a member of r and stores whose weak update
	// does. extra holds the version reliances between representatives
	// added on the fly.
	rep                       []meld.Version
	verReliance, stmtReliance graph.CSR
	extra                     overflow

	// repPairs holds every reliance between representatives, static
	// and on the fly, so an on-the-fly one is added to extra once.
	repPairs graph.PairSet

	versionSCCs, collapsedVersions int // components of two or more versions, and their versions
}

// owner returns the value ID attribution charges object o's work to.
func (s *state) owner(o ir.Obj) uint32 { return uint32(s.Graph.Prog.ObjID(o)) }

// staticReliances turns every static indirect edge whose endpoints
// carry different versions into a version constraint ([A-PROP]^F
// reduced to version constraints): row κ of the result lists the
// versions κ' with pt_κ(o) ⊆ pt_κ'(o).
func (s *state) staticReliances() graph.CSR {
	g := s.Graph
	var gained []uint32
	return graph.BuildCSR(len(s.pts), len(s.pts), func(emit func(from, to uint32)) {
		for sl := range g.NumSlots() {
			if yv := s.ver.yield[sl]; yv != meld.Epsilon {
				gained = gained[:0]
				if g.HasGained(sl) {
					gained = g.AppendGained(gained, sl)
				}
				for _, row := range [2][]uint32{g.SlotSuccs(sl), gained} {
					for _, t := range row {
						if cv := s.ver.consume[t]; cv != yv {
							emit(yv, cv)
						}
					}
				}
			}
		}
	})
}

// condense collapses the strongly connected components of static, the
// static version-reliance graph, onto their representatives.
func (s *state) condense(static graph.CSR) error {
	comps, err := graph.SCC(&static, func() error {
		return guard.Tick(s.ctx, "solve", graph.PollInterval)
	})
	if err != nil {
		return err
	}
	s.versionSCCs, s.collapsedVersions = comps.Cycles, comps.Members
	s.adopt(static, comps.Rep)
	return nil
}

// adopt makes rep the version → representative map and builds the
// representatives' reliances. A representative's version reliances are
// its members', in version order, less the edges inside its component;
// its statement reliances are the loads and stores that consume any
// member.
func (s *state) adopt(static graph.CSR, rep []meld.Version) {
	s.static, s.rep = static, rep
	nv := len(rep)
	s.verReliance = graph.BuildCSR(nv, nv, func(emit func(from, to uint32)) {
		for v := range uint32(nv) {
			for _, t := range static.Row(v) {
				if r, rt := rep[v], rep[t]; r != rt {
					emit(r, rt)
				}
			}
		}
	})
	// A load's slots are its μ, a store's its χ. pt_ε is permanently
	// empty, so no reprocessing can arise from it.
	g := s.Graph
	s.stmtReliance = graph.BuildCSR(nv, len(g.Prog.Instrs), func(emit func(r, l uint32)) {
		for l := uint32(1); l < uint32(len(g.Prog.Instrs)); l++ {
			if op := g.Prog.Instrs[l].Op; op == ir.Load || op == ir.Store {
				lo, hi := g.SlotRange(l)
				for sl := lo; sl < hi; sl++ {
					if cv := s.ver.consume[sl]; cv != meld.Epsilon {
						emit(rep[cv], l)
					}
				}
			}
		}
	})
	s.repPairs = graph.NewPairSet(len(s.verReliance.Adj))
	for r := range uint32(nv) {
		for _, t := range s.verReliance.Row(r) {
			s.repPairs.Add(r, t)
		}
	}
}

// addVerConstraint registers pt_from ⊆ pt_to during the solve, between
// the representatives of from and to.
func (s *state) addVerConstraint(from, to meld.Version) {
	if from == to || from == meld.Epsilon {
		return
	}
	if a, b := s.rep[from], s.rep[to]; a != b && s.repPairs.Add(a, b) {
		s.extra.add(a, b)
	}
}

// countVersionConstraints sets VersionConstraints to the distinct
// constraints registered between original versions: the static ones
// and those of the chains that on-the-fly call resolution wired. The
// wired ones are grouped by source into a CSR, which drops their
// repeats, and each row is then checked against the source's static
// row with a stamp array.
func (s *state) countVersionConstraints() {
	nv := len(s.pts)
	wired := graph.BuildCSR(nv, nv, s.wiredConstraints)
	n := len(s.static.Adj)
	stamp := make([]uint32, nv)
	for v := range uint32(nv) {
		for _, t := range s.static.Row(v) {
			stamp[t] = v + 1
		}
		for _, t := range wired.Row(v) {
			if stamp[t] != v+1 {
				n++
			}
		}
	}
	s.Stats.VersionConstraints = n
}

// wiredConstraints emits the constraint of every chain that on-the-fly
// resolution wired: the chains of each indirect call to each callee
// resolved for it. A chain that was already in the graph emits a
// static constraint, which the count drops.
func (s *state) wiredConstraints(emit func(from, to uint32)) {
	for _, call := range s.Graph.Prog.Instrs {
		if call == nil || !call.IsIndirectCall() {
			continue
		}
		for _, callee := range s.CalleesOf(call) {
			s.Graph.MSSA.CallChains(call, callee, func(from, to int) {
				if y, c := s.ver.yield[from], s.ver.consume[to]; y != meld.Epsilon && y != c {
					emit(y, c)
				}
			})
		}
	}
}

// setOf returns the set of κ's representative.
func (s *state) setOf(v meld.Version) uint32 { return s.pts[s.rep[v]] }

// growVersion unions src into pt_κ(o), held by κ's representative,
// and, on change, propagates to reliant representatives (transitively)
// and reschedules reliant statements.
func (s *state) growVersion(o ir.Obj, v meld.Version, src uint32) {
	if src == 0 || v == meld.Epsilon {
		return
	}
	v = s.rep[v]
	s.Stats.Propagations++
	s.attr.Prop(s.owner(o))
	set := s.e.Sets.Union(s.pts[v], src)
	if set == s.pts[v] {
		return
	}
	s.pts[v] = set
	s.Stats.Changed++
	queue := []meld.Version{v}
	//vsfs:lint-ignore guardtick version cascade is finite (monotone sets over prelabelled versions) and metered at the next run checkpoint; see DESIGN §14
	for len(queue) > 0 {
		cur := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, l := range s.stmtReliance.Row(cur) {
			s.e.Push(l)
		}
		set := s.pts[cur]
		for _, to := range s.verReliance.Row(cur) {
			queue = s.propagate(o, set, to, queue)
		}
		for e := s.extra.head[cur]; e != 0; e = s.extra.next[e-1] {
			queue = s.propagate(o, set, s.extra.to[e-1], queue)
		}
	}
}

// propagate unions set into representative to's set along a version
// reliance, queueing to if it grew.
func (s *state) propagate(o ir.Obj, set uint32, to meld.Version, queue []meld.Version) []meld.Version {
	s.Stats.Propagations++
	s.Stats.VersionProps++
	s.attr.Prop(s.owner(o))
	if grown := s.e.Sets.Union(s.pts[to], set); grown != s.pts[to] {
		s.pts[to] = grown
		s.Stats.Changed++
		queue = append(queue, to)
	}
	return queue
}

// Consumed reads pt_{ξ_ℓ(o)}(o) for a load ([LOAD]^F).
func (s *state) Consumed(sl int) uint32 { return s.setOf(s.ver.consume[sl]) }

// Forward does nothing: the version flow through identity nodes (MEMPHI,
// CallRet, FUNENTRY, FUNEXIT, calls) was folded into version constraints.
// That is VSFS's saving.
func (s *state) Forward(*ir.Instr) {}

// Store applies [STORE]^F and [SU/WU]^F: pt_{η(o)} gains pt(q) for
// stored-to objects, and the consumed version's set unless a strong
// update kills it; χ'd objects not pointed to by p pass through.
func (s *state) Store(in *ir.Instr, ptp, ptq uint32, strong bool) {
	g := s.Graph
	pointees := s.e.Sets.Get(ptp)
	// A store's slots are its χ.
	lo, hi := g.SlotRange(in.Label)
	for sl := lo; sl < hi; sl++ {
		o := g.SlotObj(sl)
		yv := s.ver.yield[sl]
		if strong {
			s.growVersion(o, yv, ptq)
			continue
		}
		s.growVersion(o, yv, s.setOf(s.ver.consume[sl]))
		if pointees.Has(uint32(o)) {
			s.growVersion(o, yv, ptq)
		}
	}
}

// Wire adds version constraints for the new interprocedural edges into
// the δ nodes' prelabelled consume versions, and grows each consumed
// version by what its source version already holds.
func (s *state) Wire(call *ir.Instr, callee *ir.Function) {
	g := s.Graph
	g.AddCallEdges(call, callee, func(from, to int) {
		y, c := s.ver.yield[from], s.ver.consume[to]
		s.addVerConstraint(y, c)
		s.growVersion(g.SlotObj(from), c, s.setOf(y))
	})
}

// collectStats counts the version sets twice: one per non-empty
// version, the paper's model, and one per distinct set the store keeps
// for them.
func (s *state) collectStats() {
	sets := s.e.Sets
	for o := range len(s.ver.first) - 1 {
		lo, hi := s.ver.versions(ir.Obj(o))
		for _, id := range s.pts[lo:hi] {
			if id != 0 {
				s.Stats.PtsSets++
				s.Stats.PtsWords += sets.Get(id).Words()
				s.attr.Set(s.owner(ir.Obj(o)))
			}
		}
	}
	stored := make([]bool, sets.Len())
	for _, id := range s.pts {
		if id != 0 && !stored[id] {
			stored[id] = true
			s.Stats.StoredSets++
			s.Stats.StoredWords += sets.Get(id).Words()
		}
	}
}
