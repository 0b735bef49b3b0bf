// Parallel sharded versioned solve.
//
// The paper's central artifact — one global points-to set per (object,
// version) instead of per-node IN/OUT maps — makes the main phase
// naturally partitionable by object: meld labelling is an independent
// pass per object, and version-to-version propagation (verReliance)
// never crosses objects. This file exploits both:
//
//   - runVersioningParallel partitions objects over ShardCount shards
//     (shardOf = object ID mod ShardCount), gives each shard a private
//     meld.Table, and labels each of the shard's objects with the same
//     one-pass topological labelling the sequential engine uses
//     (labeller.labelObject). Labels are canonical up to atom renaming
//     (the meld algebra is an ACI set union) and never span objects, so
//     the merged consume/yield functions induce exactly the sequential
//     partition of nodes into versions, and every versioning counter
//     (MeldOps, Iterations, DistinctVersions, …) equals the sequential
//     pass's.
//
//   - the main phase runs bulk-synchronous rounds over a sorted
//     frontier. A process phase has workers grab fixed-size chunks of
//     the frontier through an atomic cursor (work stealing: an idle
//     worker takes whatever chunk is next, wherever its "home" was)
//     and evaluate each node against the frozen round-start state,
//     emitting MDE-style batched deltas — cloned (target, set) pairs
//     routed to the shard that owns the target (pt deltas by value ID,
//     ptv deltas by object). After a barrier, an apply phase has each
//     shard owner sort its batch by (kind, target, emitting node) —
//     a total order, since one node emits at most one delta per
//     target — and apply it exclusively to the structures it owns,
//     including the intra-object (hence intra-shard) transitive
//     version-reliance propagation. Nodes whose processing must
//     mutate shared state (Call/FunExit wire the call graph and the
//     reliance maps; Field materialises field objects in the program)
//     are deferred to a short sequential step after the second
//     barrier, processed in ascending label order through the
//     sequential engine's own code paths. Small frontiers skip the
//     machinery entirely and run sequential "stints" — the
//     convergence tail costs barrier-free Gauss–Seidel iterations.
//
// Everything observable is independent of the worker count and of
// GOMAXPROCS: shards are fixed at ShardCount regardless of workers,
// chunk boundaries depend only on the frontier, batches are sorted
// before application, per-shard counters merge in shard order, and
// per-worker/per-shard attribution merges by commutative sums. Two
// parallel solves of the same graph — at any worker counts ≥ 2 —
// produce byte-identical results and stats; only ParallelStats.Steals
// (and wall-clock durations) reflect the actual schedule. The oracle's
// parallel-eq-sequential invariant pins the facts to the sequential
// engine's; parallel-determinism pins the full stats across worker
// counts.
//
// Budget governance follows the conservation rule of DESIGN.md §13:
// every guard charge is attributed to the shard that performs the work
// (TickShard) or to the unsharded bucket (frontier chunks, sequential
// stints), all charges land on the one shared Budget, and the
// per-shard ledger in ParallelStats.GuardCharges sums exactly to the
// budget's StepsUsed.
package core

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vsfs/internal/bitset"
	"vsfs/internal/guard"
	"vsfs/internal/ir"
	"vsfs/internal/meld"
	"vsfs/internal/obs"
	"vsfs/internal/svfg"
)

// ShardCount is the fixed number of logical shards the parallel engine
// partitions objects (and pt targets) into. It is a constant — not the
// worker count — so every schedule-independent quantity (batch
// contents, per-shard counters, the guard ledger) is identical for any
// number of workers; workers multiplex over shards. Exported so the
// server can materialise per-shard metric series up front.
const ShardCount = 16

// shardOf maps an object (or any value ID) to its owning shard.
func shardOf(o ir.ID) int { return int(uint32(o) % ShardCount) }

// parallelChunk is the frontier slice a worker claims per cursor
// bump during the process phase. Chunk boundaries depend only on the
// frontier, never on the workers, so charges stay deterministic.
const parallelChunk = 256

// parallelThreshold is the frontier size below which a round is not
// worth the barrier + clone traffic; smaller frontiers run as
// sequential stints on the embedded engine.
const parallelThreshold = 512

// stintCap bounds one sequential stint so a frontier that grows back
// past the threshold returns to parallel rounds.
const stintCap = 16384

// ParallelStats quantifies the sharded engine's schedule. All fields
// except Steals are deterministic for a given graph — independent of
// the worker count and GOMAXPROCS — and therefore safe to expose
// anywhere; Steals counts chunks claimed by a worker other than the
// chunk's home worker and is inherently schedule-dependent, so it
// feeds /metrics gauges only and never a report.
type ParallelStats struct {
	Workers      int // workers actually used (clamped to [2, ShardCount])
	Shards       int // always ShardCount; recorded for display
	Rounds       int // bulk-synchronous parallel rounds executed
	DirectStints int // sequential small-frontier stints

	// ShardPops counts processed nodes per shard, attributed by the
	// owning object of each pop (popOwner mod ShardCount) — the same
	// rule attribution uses, so the histogram is deterministic.
	ShardPops [ShardCount]int64

	// Steals counts process-phase chunks executed by a non-home
	// worker. Nondeterministic; metrics only.
	Steals int64

	// ImbalanceRatio is max(ShardPops) over the mean of ShardPops —
	// 1.0 is a perfectly balanced partition.
	ImbalanceRatio float64

	// GuardCharges is the engine-local ledger of budget charges by
	// shard; index ShardCount is the unsharded bucket (frontier
	// chunks, sequential stints, the deferred-node step). The
	// conservation rule: for a solve that owns its Budget, the sum of
	// GuardCharges equals Budget.StepsUsed.
	GuardCharges [ShardCount + 1]int64
}

// SolveParallel is Solve on the sharded engine with the given worker
// count; workers <= 1 falls back to the sequential engine.
func SolveParallel(g *svfg.Graph, workers int) *Result {
	r, _ := SolveParallelContext(context.Background(), g, workers)
	return r
}

// SolveParallelContext runs the parallel meld-labelling pass and the
// sharded bulk-synchronous main phase. Facts and attribution are
// identical to SolveContext's (the equations are monotone with a
// unique least fixpoint, and the schedule is deterministic);
// main-phase effort counters (NodesProcessed, Propagations, Changed,
// WorklistHW) may differ from the sequential engine's but are
// themselves deterministic and worker-count-independent. Cancellation and budgets are polled at
// every chunk and batch; on error all workers are joined before
// returning, so a cancelled solve leaks nothing.
func SolveParallelContext(ctx context.Context, g *svfg.Graph, workers int) (*Result, error) {
	if workers <= 1 {
		return SolveContext(ctx, g)
	}
	if workers > ShardCount {
		workers = ShardCount
	}
	attr := obs.AttrFrom(ctx)
	e := &parEngine{
		workers: workers,
		ps:      &ParallelStats{Workers: workers, Shards: ShardCount},
		wattr:   make([]*obs.ObjectAttr, workers),
	}
	if attr != nil {
		hint := g.Prog.NumValues()
		for i := range e.wattr {
			e.wattr[i] = obs.NewObjectAttr(hint)
		}
		for i := range e.sattr {
			e.sattr[i] = obs.NewObjectAttr(hint)
		}
	}

	sp := obs.StartSpan(ctx, "meld").Arg("workers", workers)
	ver, err := runVersioningParallel(ctx, g, workers, e)
	if err != nil {
		return nil, err
	}
	sp.Arg("prelabels", ver.stats.Prelabels).
		Arg("distinctVersions", ver.stats.DistinctVersions).
		Arg("iterations", ver.stats.Iterations).
		Arg("meldOps", ver.stats.MeldOps).
		End()

	e.state = &state{
		Result:       newResult(g, ver),
		ctx:          ctx,
		attr:         attr,
		verReliance:  make(map[verKey][]meld.Version),
		stmtReliance: make(map[verKey][]uint32),
		fsCallers:    make(map[*ir.Function][]uint32),
	}
	e.Stats.Versioning = ver.stats

	sp = obs.StartSpan(ctx, "main").Arg("workers", workers)
	start := time.Now()
	e.buildReliances()
	if err := e.runParallel(); err != nil {
		return nil, err
	}
	e.Stats.SolveTime = time.Since(start)
	e.Stats.WorklistHW = max(e.maxFrontier, e.work.hw)
	e.collectStats()

	// Fold the per-worker and per-shard attribution into the run's
	// collector; sums commute, so the merged totals are independent of
	// how chunks and shards landed on workers.
	for _, wa := range e.wattr {
		attr.Merge(wa)
	}
	for i := range e.sattr {
		attr.Merge(e.sattr[i])
	}

	ps := e.ps
	var total int64
	for sh := range ps.ShardPops {
		total += ps.ShardPops[sh]
	}
	if total > 0 {
		maxPops := ps.ShardPops[0]
		for _, p := range ps.ShardPops[1:] {
			maxPops = max(maxPops, p)
		}
		ps.ImbalanceRatio = float64(maxPops) * ShardCount / float64(total)
	}
	for i := range e.ledger {
		ps.GuardCharges[i] = e.ledger[i].Load()
	}
	ps.Steals = e.steals.Load()
	e.Stats.Parallel = ps

	sp.Arg("nodesProcessed", e.Stats.NodesProcessed).
		Arg("rounds", ps.Rounds).
		Arg("directStints", ps.DirectStints).
		End()
	return e.Result, nil
}

// parEngine embeds the sequential engine's state so the deferred-node
// step and small-frontier stints run through the exact sequential code
// paths, and adds the round machinery around it.
type parEngine struct {
	*state

	workers int
	ps      *ParallelStats

	// ledger mirrors every guard charge by shard (index ShardCount =
	// unsharded); atomics because process-phase workers charge the
	// unsharded bucket concurrently.
	ledger [ShardCount + 1]atomic.Int64
	steals atomic.Int64

	// wattr holds per-worker collectors for process-phase pop charges;
	// sattr per-shard collectors for versioning melds and apply-phase
	// propagation charges. All nil when attribution is off.
	wattr []*obs.ObjectAttr
	sattr [ShardCount]*obs.ObjectAttr

	seqSteps    int // sequential-path step counter (stints + deferred)
	maxFrontier int
}

// delta is one batched shard-boundary message: "union set into target".
// kind dPt targets the top-level set pt[target]; kind dPtv targets the
// global (obj, ver) set. node is the emitting SVFG node — the sort
// tie-break that makes batch application order-canonical.
type delta struct {
	kind   uint8
	node   uint32
	target ir.ID // dPt: value ID; dPtv: object ID
	ver    meld.Version
	set    *bitset.Sparse
}

const (
	dPt uint8 = iota
	dPtv
)

func deltaLess(a, b delta) bool {
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	if a.target != b.target {
		return a.target < b.target
	}
	if a.ver != b.ver {
		return a.ver < b.ver
	}
	return a.node < b.node
}

// runParallel drives rounds until the frontier drains.
func (e *parEngine) runParallel() error {
	n := len(e.Graph.Prog.Instrs)
	frontier := make([]uint32, 0, n-1)
	for l := 1; l < n; l++ {
		frontier = append(frontier, uint32(l))
	}
	for len(frontier) > 0 {
		e.maxFrontier = max(e.maxFrontier, len(frontier))
		if len(frontier) < parallelThreshold {
			e.ps.DirectStints++
			for _, l := range frontier {
				e.work.push(l)
			}
			if err := e.stint(); err != nil {
				return err
			}
			frontier = e.drainWork()
			continue
		}
		e.ps.Rounds++
		var perShard [ShardCount][]delta
		deferred, err := e.processPhase(frontier, &perShard)
		if err != nil {
			return err
		}
		shardNext, err := e.applyPhase(&perShard)
		if err != nil {
			return err
		}
		if err := e.sequentialStep(deferred); err != nil {
			return err
		}
		frontier = e.assembleNext(shardNext)
	}
	return nil
}

// stint runs the embedded sequential engine for at most stintCap pops —
// the barrier-free treatment for small frontiers and the convergence
// tail. Charges go to the unsharded ledger bucket.
func (e *parEngine) stint() error {
	prog := e.Graph.Prog
	for pops := 0; pops < stintCap; pops++ {
		if e.seqSteps%cancelCheckInterval == 0 {
			if err := guard.Tick(e.ctx, "solve", cancelCheckInterval); err != nil {
				return err
			}
			e.ledger[ShardCount].Add(cancelCheckInterval)
		}
		e.seqSteps++
		l, ok := e.work.pop()
		if !ok {
			return nil
		}
		e.Stats.NodesProcessed++
		in := prog.Instrs[l]
		owner := popOwner(e.Graph, in)
		e.ps.ShardPops[shardOf(ir.ID(owner))]++
		e.attr.Pop(owner)
		e.process(in)
	}
	return nil
}

// drainWork empties the embedded worklist into a sorted frontier.
func (e *parEngine) drainWork() []uint32 {
	var out []uint32
	//vsfs:lint-ignore guardtick drains a finite worklist snapshot between BSP rounds; each node is charged when its chunk is processed
	for {
		l, ok := e.work.pop()
		if !ok {
			break
		}
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// processPhase evaluates every frontier node against the frozen
// round-start state: workers claim chunks through an atomic cursor and
// emit cloned deltas into per-worker per-shard buckets (no locks, no
// shared mutation). Nodes that must mutate shared state (Field, Call,
// FunExit) are collected for the sequential step instead. On success
// the per-worker buckets are concatenated per shard — concatenation
// order is irrelevant because apply sorts each batch by a total order.
func (e *parEngine) processPhase(frontier []uint32, perShard *[ShardCount][]delta) ([]uint32, error) {
	w := e.workers
	outs := make([][ShardCount][]delta, w)
	defs := make([][]uint32, w)
	pops := make([][ShardCount]int64, w)
	errs := make([]error, w)

	var cursor atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for wi := 0; wi < w; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for !stop.Load() {
				start := int(cursor.Add(parallelChunk)) - parallelChunk
				if start >= len(frontier) {
					return
				}
				end := min(start+parallelChunk, len(frontier))
				if err := guard.Tick(e.ctx, "solve", int64(end-start)); err != nil {
					errs[wi] = err
					stop.Store(true)
					return
				}
				e.ledger[ShardCount].Add(int64(end - start))
				if (start/parallelChunk)%w != wi {
					e.steals.Add(1)
				}
				for _, l := range frontier[start:end] {
					in := e.Graph.Prog.Instrs[l]
					owner := popOwner(e.Graph, in)
					pops[wi][shardOf(ir.ID(owner))]++
					e.wattr[wi].Pop(owner)
					e.emit(&outs[wi], &defs[wi], in)
				}
			}
		}(wi)
	}
	wg.Wait()
	for wi := 0; wi < w; wi++ {
		if errs[wi] != nil {
			return nil, errs[wi]
		}
	}

	e.Stats.NodesProcessed += len(frontier)
	for wi := 0; wi < w; wi++ {
		for sh := range perShard {
			perShard[sh] = append(perShard[sh], outs[wi][sh]...)
		}
		for sh, p := range pops[wi] {
			e.ps.ShardPops[sh] += p
		}
	}
	deferred := make([]uint32, 0, 16)
	for wi := 0; wi < w; wi++ {
		deferred = append(deferred, defs[wi]...)
	}
	sort.Slice(deferred, func(i, j int) bool { return deferred[i] < deferred[j] })
	return deferred, nil
}

// emit computes one node's contribution against the frozen state. Reads
// only: pt/ptv via the read-only accessors, the versioning functions,
// memory SSA, and the auxiliary result — nothing the apply phase of
// this round has touched yet. Deltas whose set is already contained in
// the target are dropped here (the containment can only grow), which
// removes the steady-state no-op unions that dominate late rounds.
func (e *parEngine) emit(out *[ShardCount][]delta, deferred *[]uint32, in *ir.Instr) {
	switch in.Op {
	case ir.Alloc:
		if !e.PointsTo(in.Def).Has(uint32(in.Obj)) {
			e.emitPt(out, in.Label, in.Def, bitset.Of(uint32(in.Obj)))
		}

	case ir.Copy:
		if src := e.PointsTo(in.Uses[0]); !src.SubsetOf(e.PointsTo(in.Def)) {
			e.emitPt(out, in.Label, in.Def, src.Clone())
		}

	case ir.Phi:
		acc := bitset.New()
		for _, u := range in.Uses {
			acc.UnionWith(e.PointsTo(u))
		}
		if !acc.SubsetOf(e.PointsTo(in.Def)) {
			e.emitPt(out, in.Label, in.Def, acc)
		}

	case ir.Load:
		// [LOAD]^F against the frozen consumed sets.
		l := in.Label
		acc := bitset.New()
		e.PointsTo(in.Uses[0]).ForEach(func(o uint32) {
			acc.UnionWith(e.ConsumedSet(l, ir.ID(o)))
		})
		if !acc.SubsetOf(e.PointsTo(in.Def)) {
			e.emitPt(out, in.Label, in.Def, acc)
		}

	case ir.Store:
		e.emitStore(out, in)

	case ir.Field, ir.Call, ir.FunExit:
		// Field materialises field objects in the program; Call and
		// FunExit wire the call graph, reliance maps, and indirect
		// edges. All mutate shared state — the sequential step owns
		// them.
		*deferred = append(*deferred, in.Label)
	}
}

func (e *parEngine) emitPt(out *[ShardCount][]delta, node uint32, v ir.ID, set *bitset.Sparse) {
	if set.IsEmpty() {
		return
	}
	sh := shardOf(v)
	out[sh] = append(out[sh], delta{kind: dPt, node: node, target: v, set: set})
}

// emitStore applies [STORE]^F and [SU/WU]^F read-only, one merged delta
// per yielded (object, version).
func (e *parEngine) emitStore(out *[ShardCount][]delta, in *ir.Instr) {
	g := e.Graph
	l := in.Label
	p, q := in.Uses[0], in.Uses[1]
	ptp := e.PointsTo(p)
	ptq := e.PointsTo(q)

	strong := false
	if single, ok := g.Aux.PointsTo(p).Single(); ok && g.IsSingleton(ir.ID(single)) {
		strong = true
	}

	g.MSSA.ChiOf(l).ForEach(func(o32 uint32) {
		o := ir.ID(o32)
		yv := e.ver.yieldOf(l, o)
		if yv == meld.Epsilon {
			return
		}
		acc := bitset.New()
		if strong {
			acc.UnionWith(ptq)
		} else {
			acc.UnionWith(e.ConsumedSet(l, o))
			if ptp.Has(o32) {
				acc.UnionWith(ptq)
			}
		}
		if acc.IsEmpty() || acc.SubsetOf(e.ptvOf(o, yv)) {
			return
		}
		sh := shardOf(o)
		out[sh] = append(out[sh], delta{kind: dPtv, node: l, target: o, ver: yv, set: acc})
	})
}

// shardDeltaStats accumulates one shard's apply-phase counter bumps,
// merged into Stats in shard order after the barrier.
type shardDeltaStats struct {
	propagations int
	changed      int
	versionProps int
}

// applyPhase hands each shard's sorted batch to exactly one worker at a
// time; the shard owner exclusively mutates the pt entries and the ptv
// shard map it owns, runs the intra-shard transitive version-reliance
// propagation, and collects the nodes to reschedule. Charges go to the
// shard's ledger slot via TickShard, so a breach here carries the
// shard's identity into the degradation provenance.
func (e *parEngine) applyPhase(perShard *[ShardCount][]delta) (*[ShardCount][]uint32, error) {
	// Owner-exclusive writes need the pt slice to already span every
	// delta target: grow once, before workers start.
	maxV := ir.ID(len(e.pt) - 1)
	for sh := range perShard {
		for _, d := range perShard[sh] {
			if d.kind == dPt && d.target > maxV {
				maxV = d.target
			}
		}
	}
	if int(maxV) >= len(e.pt) {
		grown := make([]*bitset.Sparse, maxV+1)
		copy(grown, e.pt)
		e.pt = grown
	}

	var next [ShardCount][]uint32
	var stats [ShardCount]shardDeltaStats
	var errs [ShardCount]error

	var cursor atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for wi := 0; wi < e.workers; wi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				sh := int(cursor.Add(1)) - 1
				if sh >= ShardCount {
					return
				}
				batch := perShard[sh]
				if len(batch) == 0 {
					continue
				}
				if err := guard.TickShard(e.ctx, "solve", sh, int64(len(batch))); err != nil {
					errs[sh] = err
					stop.Store(true)
					return
				}
				e.ledger[sh].Add(int64(len(batch)))
				sort.Slice(batch, func(i, j int) bool { return deltaLess(batch[i], batch[j]) })
				e.applyBatch(sh, batch, &stats[sh], &next[sh])
			}
		}()
	}
	wg.Wait()
	for sh := range errs {
		if errs[sh] != nil {
			return nil, errs[sh]
		}
	}
	for sh := range stats {
		e.Stats.Propagations += stats[sh].propagations
		e.Stats.Changed += stats[sh].changed
		e.Stats.VersionProps += stats[sh].versionProps
	}
	return &next, nil
}

// applyBatch applies one shard's canonical batch. For pt deltas the
// shard owns pt[v] for every v ≡ sh (mod ShardCount); for ptv deltas it
// owns the shard's map and the whole reliance closure of its objects.
func (e *parEngine) applyBatch(sh int, batch []delta, st *shardDeltaStats, next *[]uint32) {
	g := e.Graph
	attr := e.sattr[sh]
	for _, d := range batch {
		if d.kind == dPt {
			st.propagations++
			attr.Prop(0)
			tgt := e.pt[d.target]
			if tgt == nil {
				tgt = bitset.New()
				e.pt[d.target] = tgt
			}
			if tgt.UnionWith(d.set) {
				st.changed++
				*next = append(*next, g.UsersOf(d.target)...)
			}
			continue
		}
		// dPtv: the sequential growVersion, with pushes redirected to
		// the shard's reschedule list. The reliance closure stays
		// inside the object, hence inside this shard.
		o := d.target
		st.propagations++
		attr.Prop(uint32(o))
		if !e.ptvSet(o, d.ver).UnionWith(d.set) {
			continue
		}
		st.changed++
		queue := []meld.Version{d.ver}
		//vsfs:lint-ignore guardtick version cascade is finite (monotone sets over prelabelled versions) and metered at the next shard checkpoint; see DESIGN §15
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			key := verKey{obj: o, ver: v}
			*next = append(*next, e.stmtReliance[key]...)
			cur := e.ptv[sh][key]
			for _, to := range e.verReliance[key] {
				st.propagations++
				st.versionProps++
				attr.Prop(uint32(o))
				if e.ptvSet(o, to).UnionWith(cur) {
					st.changed++
					queue = append(queue, to)
				}
			}
		}
	}
}

// sequentialStep processes the round's deferred nodes in ascending
// label order through the sequential engine: call-graph wiring,
// interprocedural version constraints, field-object materialisation.
// Their pops were already charged in the process phase, so the step
// polls governance without charging steps.
func (e *parEngine) sequentialStep(deferred []uint32) error {
	prog := e.Graph.Prog
	for i, l := range deferred {
		if i%cancelCheckInterval == 0 {
			if err := guard.Tick(e.ctx, "solve", 0); err != nil {
				return err
			}
		}
		e.process(prog.Instrs[l])
	}
	return nil
}

// assembleNext merges the per-shard reschedule lists (in shard order)
// with whatever the sequential step pushed, into a sorted deduplicated
// frontier.
func (e *parEngine) assembleNext(shardNext *[ShardCount][]uint32) []uint32 {
	var out []uint32
	for sh := range shardNext {
		out = append(out, shardNext[sh]...)
	}
	out = append(out, e.drainWork()...)
	if len(out) == 0 {
		return nil
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	dst := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[i-1] {
			out[dst] = out[i]
			dst++
		}
	}
	return out[:dst]
}

// runVersioningParallel is the parallel meld-labelling pass: a
// sequential prelabelling scan lists each object's seeds in label
// order, then workers drain the ShardCount object partitions, each shard
// labelling its objects (ascending object ID) against a private
// meld.Table with the worker's labeller. The merged consume/yield
// functions carry per-shard version handles — meaningless across
// objects, which is fine: the main phase only ever compares versions of
// one object, under keys that include the object.
func runVersioningParallel(ctx context.Context, g *svfg.Graph, workers int, e *parEngine) (*versioning, error) {
	start := time.Now()
	n := len(g.Prog.Instrs)

	objs, perObj := collectPrelabels(g)
	var shardObjs [ShardCount][]ir.ID
	for _, o := range objs {
		shardObjs[shardOf(o)] = append(shardObjs[shardOf(o)], o)
	}

	shards := make([]*versioning, ShardCount)
	for sh := range shards {
		shards[sh] = newVersioning(n, meld.NewTable())
	}

	var errs [ShardCount]error
	var cursor atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lb := newLabeller(n)
			for !stop.Load() {
				sh := int(cursor.Add(1)) - 1
				if sh >= ShardCount {
					return
				}
				lb.meter(sh, &e.ledger[sh], e.sattr[sh])
				for _, o := range shardObjs[sh] {
					if err := lb.labelObject(ctx, g, shards[sh], o, perObj[o]); err != nil {
						errs[sh] = err
						stop.Store(true)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for sh := range errs {
		if errs[sh] != nil {
			return nil, errs[sh]
		}
	}

	// Merge in shard order. Melding is complete, so the merged
	// versioning carries no table; per-shard distinct counts dedupe
	// the shared ε. Key sets are disjoint across shards (objects are
	// partitioned), so map inserts commute.
	v := newVersioning(n, nil)
	v.stats.DistinctVersions = 1
	for _, sv := range shards {
		for l := 0; l < n; l++ {
			for o, ver := range sv.consume[l] {
				v.setConsume(uint32(l), o, ver)
			}
			for o, ver := range sv.yield[l] {
				v.setYield(uint32(l), o, ver)
			}
		}
		v.stats.Prelabels += sv.stats.Prelabels
		v.stats.MeldOps += sv.stats.MeldOps
		v.stats.Iterations += sv.stats.Iterations
		v.stats.WorklistHW = max(v.stats.WorklistHW, sv.stats.WorklistHW)
		v.stats.DistinctVersions += sv.tab.Distinct() - 1
		ts := sv.tab.Stats()
		v.stats.Meld.Melds += ts.Melds
		v.stats.Meld.CacheHits += ts.CacheHits
		v.stats.Meld.SubsetFast += ts.SubsetFast
		v.stats.Meld.NewLabels += ts.NewLabels
	}
	v.countEntries()
	v.stats.Duration = time.Since(start)
	return v, nil
}
