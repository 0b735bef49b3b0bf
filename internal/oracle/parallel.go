package oracle

import (
	"bytes"
	"context"
	"reflect"
	"runtime"

	"vsfs"
	"vsfs/internal/core"
	"vsfs/internal/ir"
)

// parallelWitnessWorkers is the worker count the battery solves with —
// enough to exercise real shard contention without oversubscribing CI
// runners.
const parallelWitnessWorkers = 4

// checkParallel asserts the parallel engine's contract at the core
// layer (parallel-eq-sequential): the sharded bulk-synchronous solve
// lands on exactly the sequential fixpoint — same top-level sets, same
// consumed/yielded sets at every memory access, same resolved call
// graph — and a second solve at a different worker count is identical
// to the first (parallel-determinism). Gated with the re-solve battery
// because it solves VSFS twice more.
func (c *checker) checkParallel() {
	b := c.b
	p1 := core.SolveParallel(b.Graph.Clone(), parallelWitnessWorkers)
	c.compareVSFS("parallel-eq-sequential", b.VSFS, p1)
	if c.full {
		return
	}
	p2 := core.SolveParallel(b.Graph.Clone(), 2*parallelWitnessWorkers)
	c.compareVSFS("parallel-determinism", p1, p2)
	// Everything in the stats except wall clock, the requested worker
	// count, and the steal tally must be schedule-independent.
	s1, s2 := normalizeParallelStats(p1.Stats), normalizeParallelStats(p2.Stats)
	if !reflect.DeepEqual(s1, s2) {
		c.failf("parallel-determinism", "stats differ between %d and %d workers: %+v vs %+v",
			parallelWitnessWorkers, 2*parallelWitnessWorkers, s1, s2)
	}
}

func normalizeParallelStats(s core.Stats) core.Stats {
	s.SolveTime = 0
	s.Versioning.Duration = 0
	if s.Parallel != nil {
		ps := *s.Parallel
		ps.Workers = 0
		ps.Steals = 0
		s.Parallel = &ps
	}
	return s
}

// compareVSFS asserts two VSFS results agree on every queryable fact.
func (c *checker) compareVSFS(invariant string, a, b2 *core.Result) {
	b := c.b
	for id := ir.ID(1); int(id) < b.Prog.NumValues(); id++ {
		if c.full {
			return
		}
		if b.Prog.IsPointer(id) && !a.PointsTo(id).Equal(b2.PointsTo(id)) {
			c.failf(invariant, "pts(%s): %v ≠ %v", b.Prog.NameOf(id), a.PointsTo(id), b2.PointsTo(id))
		}
		if b.Prog.Value(id).Kind == ir.Object && !a.ObjectSummary(id).Equal(b2.ObjectSummary(id)) {
			c.failf(invariant, "object summary of %s differs", b.Prog.NameOf(id))
		}
	}
	mssa := b.Graph.MSSA
	for _, f := range b.Prog.Funcs {
		if c.full {
			return
		}
		f.ForEachInstr(func(in *ir.Instr) {
			if c.full {
				return
			}
			switch in.Op {
			case ir.Load:
				mssa.MuOf(in.Label).ForEach(func(o32 uint32) {
					o := ir.ID(o32)
					if !a.ConsumedSet(in.Label, o).Equal(b2.ConsumedSet(in.Label, o)) {
						c.failf(invariant, "load ℓ%d, %s: consumed sets differ", in.Label, b.Prog.NameOf(o))
					}
				})
			case ir.Store:
				mssa.ChiOf(in.Label).ForEach(func(o32 uint32) {
					o := ir.ID(o32)
					if !a.ConsumedSet(in.Label, o).Equal(b2.ConsumedSet(in.Label, o)) {
						c.failf(invariant, "store ℓ%d, %s: consumed sets differ", in.Label, b.Prog.NameOf(o))
					}
					if !a.YieldedSet(in.Label, o).Equal(b2.YieldedSet(in.Label, o)) {
						c.failf(invariant, "store ℓ%d, %s: yielded sets differ", in.Label, b.Prog.NameOf(o))
					}
				})
			case ir.Call:
				ac, bc := a.CalleesOf(in), b2.CalleesOf(in)
				if len(ac) != len(bc) {
					c.failf(invariant, "call ℓ%d: callee counts differ (%d vs %d)", in.Label, len(ac), len(bc))
					return
				}
				for i := range ac {
					if ac[i] != bc[i] {
						c.failf(invariant, "call ℓ%d: callee %d differs (%s vs %s)",
							in.Label, i, ac[i].Name, bc[i].Name)
						return
					}
				}
			}
		})
	}
}

// parallelReportJSON renders a run's report with the schedule-shaped
// main-phase effort counters zeroed. A parallel schedule pops nodes in a
// different order than the sequential one, so NodesProcessed,
// Propagations, Changed and WorklistHighWater legitimately differ
// between the two engines (each is internally deterministic); every
// remaining byte — facts, findings, shape, the fixpoint-shaped counters
// PtsSets and Prelabels, and the versioning counters, since both engines
// label each object with the same pass — must agree.
func parallelReportJSON(r *vsfs.Result) []byte {
	rep := r.Report()
	rep.Stats.NodesProcessed = 0
	rep.Stats.Propagations = 0
	rep.Stats.Changed = 0
	rep.Stats.WorklistHighWater = 0
	data, err := rep.MarshalIndent()
	if err != nil {
		return []byte("marshal error: " + err.Error())
	}
	return data
}

// fullReportJSON renders a report verbatim, for comparisons where full
// byte identity is the contract.
func fullReportJSON(r *vsfs.Result) []byte {
	data, err := r.Report().MarshalIndent()
	if err != nil {
		return []byte("marshal error: " + err.Error())
	}
	return data
}

// analyzeIRWorkers runs the facade on textual IR with the parallel
// knob set.
func analyzeIRWorkers(src string, workers int) (*vsfs.Result, error) {
	return vsfs.AnalyzeContext(context.Background(), src,
		vsfs.Options{Mode: vsfs.VSFS, Input: vsfs.InputIR, Parallel: workers})
}

// CheckParallel asserts the facade-level parallel contract on textual
// IR:
//
//	parallel-eq-sequential: a -parallel N run's facts, findings, and
//	    Dump are identical to the sequential run's, and its report is
//	    byte-identical after zeroing the schedule-shaped effort
//	    counters — the invariant that makes parallelism a pure
//	    latency/CPU trade.
//	parallel-determinism:   every worker count ≥ 2 produces a
//	    byte-identical full report (counters included), and so does the
//	    same worker count under a different GOMAXPROCS — the invariant
//	    the server's single parallel cache-key class rests on.
func CheckParallel(src string, opts Options) []Violation {
	opts = opts.withDefaults()
	v := &violations{max: opts.MaxViolations}

	seq, err := analyzeIRWorkers(src, 0)
	if err != nil {
		return []Violation{{Invariant: "parallel-baseline", Detail: err.Error()}}
	}
	if seq.Parallelism() != nil {
		v.failf("parallel-baseline", "sequential run reports parallel schedule stats")
	}

	var ref *vsfs.Result
	for _, w := range []int{2, 4, 8} {
		if v.full() {
			return v.out
		}
		par, err := analyzeIRWorkers(src, w)
		if err != nil {
			v.failf("parallel-run", "workers=%d: %v", w, err)
			continue
		}
		ps := par.Parallelism()
		if ps == nil {
			v.failf("parallel-run", "workers=%d: no parallel schedule stats recorded", w)
			continue
		}
		if ps.Workers < 2 || ps.Workers > core.ShardCount {
			v.failf("parallel-run", "workers=%d: engine ran with %d workers, outside [2, %d]",
				w, ps.Workers, core.ShardCount)
		}
		if par.Dump() != seq.Dump() {
			v.failf("parallel-eq-sequential", "workers=%d: Dump differs from sequential run", w)
		}
		if pj, sj := parallelReportJSON(par), parallelReportJSON(seq); !bytes.Equal(pj, sj) {
			v.failf("parallel-eq-sequential", "workers=%d: report (schedule counters zeroed) differs from sequential run at %s",
				w, jsonDiffPath(pj, sj))
		}
		if ref == nil {
			ref = par
			continue
		}
		if pj, rj := fullReportJSON(par), fullReportJSON(ref); !bytes.Equal(pj, rj) {
			v.failf("parallel-determinism", "workers=%d: full report differs from workers=2 run at %s",
				w, jsonDiffPath(pj, rj))
		}
	}
	if v.full() || ref == nil {
		return v.out
	}

	// The schedule must also be blind to GOMAXPROCS: the engine's worker
	// count is the knob, not the runtime's.
	old := runtime.GOMAXPROCS(1)
	single, err := analyzeIRWorkers(src, 2)
	runtime.GOMAXPROCS(old)
	if err != nil {
		v.failf("parallel-run", "GOMAXPROCS=1: %v", err)
		return v.out
	}
	if sj, rj := fullReportJSON(single), fullReportJSON(ref); !bytes.Equal(sj, rj) {
		v.failf("parallel-determinism", "GOMAXPROCS=1 full report differs from unrestricted run at %s",
			jsonDiffPath(sj, rj))
	}
	return v.out
}
