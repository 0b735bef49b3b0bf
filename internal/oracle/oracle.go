// Package oracle is the differential-testing backbone of this
// repository: it solves one program with Andersen's analysis, SFS,
// VSFS, and the CFG-free backend, and cross-checks the battery of
// invariants the paper's correctness argument rests on — most
// importantly that VSFS is bit-for-bit as precise as SFS (the
// versioning theorem of Section IV-E), that every flow-sensitive
// backend refines the auxiliary one and sits where the precision chain
// fsicfg ⊆ sfs ≡ vsfs ⊆ cfgfree ⊆ andersen puts it, and that solving
// is deterministic. Every future optimisation PR
// regresses against this oracle: cmd/vsfs-fuzz drives it over random
// workload programs, and testdata/regressions/ replays every minimized
// divergence ever found.
package oracle

import (
	"context"
	"fmt"
	"slices"

	"vsfs/internal/andersen"
	"vsfs/internal/cfgfree"
	"vsfs/internal/core"
	"vsfs/internal/ir"
	"vsfs/internal/irparse"
	"vsfs/internal/memssa"
	"vsfs/internal/obs"
	"vsfs/internal/sfs"
	"vsfs/internal/shape"
	"vsfs/internal/svfg"
	"vsfs/internal/workload"
)

// Violation is one invariant breach found by the oracle.
type Violation struct {
	// Invariant is a stable short key naming the broken property (see
	// the check* functions and DESIGN.md §8 for the full list).
	Invariant string
	// Detail is a human-readable description pinpointing the breach.
	Detail string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// Options tunes how much of the battery runs.
type Options struct {
	// SkipResolve disables the determinism/idempotence re-solve (the
	// most expensive check: it solves both flow-sensitive analyses a
	// second time).
	SkipResolve bool
	// MaxWitnesses caps the number of (pointer, object) facts replayed
	// through the SVFG witness search; 0 means DefaultMaxWitnesses,
	// negative means unlimited.
	MaxWitnesses int
	// MaxViolations stops checking after this many violations; 0 means
	// DefaultMaxViolations, negative means unlimited.
	MaxViolations int
}

// Defaults for Options' zero values.
const (
	DefaultMaxWitnesses  = 200
	DefaultMaxViolations = 20
)

func (o Options) withDefaults() Options {
	if o.MaxWitnesses == 0 {
		o.MaxWitnesses = DefaultMaxWitnesses
	}
	if o.MaxViolations == 0 {
		o.MaxViolations = DefaultMaxViolations
	}
	return o
}

// Bundle holds one program solved by every backend — the staged
// flow-sensitive pair over clones of the same SVFG, plus the CFG-free
// solver over the raw IR — the shape every cross-analysis invariant
// needs.
type Bundle struct {
	Prog *ir.Program
	Aux  *andersen.Result
	// Graph is the pristine SVFG (no on-the-fly edges added).
	Graph *svfg.Graph
	SFS   *sfs.Result
	VSFS  *core.Result
	// CFGFree is solved on the post-memssa program, so its labels line
	// up with the SFS IN/OUT queries.
	CFGFree *cfgfree.Result
}

// SolveBundle runs the full staged pipeline once, both flow-sensitive
// main phases over independent clones of the resulting SVFG, and the
// CFG-free backend over the (memssa-rewritten) program.
func SolveBundle(prog *ir.Program) *Bundle {
	aux := andersen.Analyze(prog)
	mssa := memssa.Build(prog, aux)
	g := svfg.Build(prog, aux, mssa)
	return &Bundle{
		Prog:    prog,
		Aux:     aux,
		Graph:   g,
		SFS:     sfs.Solve(g.Clone()),
		VSFS:    core.Solve(g.Clone()),
		CFGFree: cfgfree.Solve(prog, aux),
	}
}

// checker accumulates violations up to the configured cap.
type checker struct {
	b    *Bundle
	opts Options
	out  []Violation
	full bool
}

func (c *checker) failf(invariant, format string, args ...any) {
	if c.full {
		return
	}
	c.out = append(c.out, Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
	if c.opts.MaxViolations > 0 && len(c.out) >= c.opts.MaxViolations {
		c.full = true
	}
}

// Check runs the whole battery on an already-solved bundle.
func Check(b *Bundle, opts Options) []Violation {
	c := &checker{b: b, opts: opts.withDefaults()}
	c.checkTopLevel()
	c.checkMemory()
	c.checkCallGraph()
	c.checkStorage()
	c.checkCheckers()
	c.checkWitnesses()
	c.checkCfgfree()
	c.checkShape()
	if !c.opts.SkipResolve {
		c.checkResolve()
		c.checkAttribution()
	}
	return c.out
}

// CheckProgram solves prog with every backend and checks the
// battery. The program must be finalized and never previously analysed.
func CheckProgram(prog *ir.Program, opts Options) []Violation {
	return Check(SolveBundle(prog), opts)
}

// CheckSource parses textual IR and checks it; parse failures are
// reported as a violation rather than an error so corpus replay loops
// stay simple.
func CheckSource(src string, opts Options) []Violation {
	prog, err := irparse.Parse(src)
	if err != nil {
		return []Violation{{Invariant: "parse", Detail: err.Error()}}
	}
	return CheckProgram(prog, opts)
}

// CheckSeed generates the workload program for (seed, cfg) and checks
// it.
func CheckSeed(seed int64, cfg workload.RandomConfig, opts Options) []Violation {
	return CheckProgram(workload.Random(seed, cfg), opts)
}

// checkTopLevel asserts, for every top-level pointer v:
//
//	vsfs-eq-toplevel:  pts_VSFS(v) = pts_SFS(v)   (the precision theorem)
//	sfs-subset-aux:    pts_SFS(v) ⊆ pts_aux(v)    (staging soundness)
func (c *checker) checkTopLevel() {
	b := c.b
	for id := ir.ID(1); int(id) < b.Prog.NumValues(); id++ {
		if c.full {
			return
		}
		if !b.Prog.IsPointer(id) {
			continue
		}
		sp, vp := b.SFS.PointsTo(id), b.VSFS.PointsTo(id)
		if !sp.Equal(vp) {
			c.failf("vsfs-eq-toplevel", "pts(%s): SFS %v ≠ VSFS %v", b.Prog.NameOf(id), sp, vp)
		}
		if !sp.SubsetOf(b.Aux.PointsTo(id)) {
			c.failf("sfs-subset-aux", "pts(%s): SFS %v ⊄ Andersen %v",
				b.Prog.NameOf(id), sp, b.Aux.PointsTo(id))
		}
	}
}

// checkMemory asserts the address-taken half of the precision theorem at
// every memory access ℓ and every object o it μ/χ-references:
//
//	vsfs-eq-consumed:  pt_{ξ_ℓ(o)}(o) = IN_SFS[ℓ](o)
//	vsfs-eq-yielded:   pt_{η_ℓ(o)}(o) = OUT_SFS[ℓ](o)   (stores)
//	sfs-in-subset-aux: IN_SFS[ℓ](o) ⊆ pts_aux(o)
func (c *checker) checkMemory() {
	b := c.b
	c.walk(func(in *ir.Instr, o ir.Obj) {
		ss, vs := b.SFS.ConsumedSet(in.Label, o), b.VSFS.ConsumedSet(in.Label, o)
		if !ss.Equal(vs) {
			c.failf("vsfs-eq-consumed", "%s ℓ%d, %s: SFS IN %v ≠ VSFS %v",
				in.Op, in.Label, b.Prog.ObjValue(o).Name, ss, vs)
		}
		if in.Op == ir.Load {
			if !ss.SubsetOf(b.Aux.ObjectSummary(o)) {
				c.failf("sfs-in-subset-aux", "load ℓ%d, %s: IN %v ⊄ Andersen %v",
					in.Label, b.Prog.ObjValue(o).Name, ss, b.Aux.ObjectSummary(o))
			}
			return
		}
		so, vo := b.SFS.YieldedSet(in.Label, o), b.VSFS.YieldedSet(in.Label, o)
		if !so.Equal(vo) {
			c.failf("vsfs-eq-yielded", "store ℓ%d, %s: SFS OUT %v ≠ VSFS %v",
				in.Label, b.Prog.ObjValue(o).Name, so, vo)
		}
	}, nil)
}

// walk visits the program in instruction order until the violation cap
// is reached: access(in, o) for every object o a load μ-references or a
// store χ-defines, and call(in) for every call. Either may be nil.
func (c *checker) walk(access func(in *ir.Instr, o ir.Obj), call func(in *ir.Instr)) {
	mssa := c.b.Graph.MSSA
	for _, f := range c.b.Prog.Funcs {
		if c.full {
			return
		}
		f.ForEachInstr(func(in *ir.Instr) {
			if c.full {
				return
			}
			switch in.Op {
			case ir.Call:
				if call != nil {
					call(in)
				}
			case ir.Load, ir.Store:
				if access == nil {
					return
				}
				objs := mssa.MuOf(in.Label)
				if in.Op == ir.Store {
					objs = mssa.ChiOf(in.Label)
				}
				objs.ForEach(func(o uint32) { access(in, ir.Obj(o)) })
			}
		})
	}
}

// resolver is the call-graph half of the query surface every backend's
// Result shares.
type resolver interface {
	CalleesOf(call *ir.Instr) []*ir.Function
}

// sameCallees returns the callee lists a and b resolve for call and
// whether they are equal, order included.
func sameCallees(a, b resolver, call *ir.Instr) (ca, cb []*ir.Function, equal bool) {
	ca, cb = a.CalleesOf(call), b.CalleesOf(call)
	return ca, cb, slices.Equal(ca, cb)
}

// extraCallees returns the callees sub resolves for call that sup does
// not, in sub's order.
func extraCallees(sub, sup resolver, call *ir.Instr) []*ir.Function {
	have := sup.CalleesOf(call)
	var out []*ir.Function
	for _, g := range sub.CalleesOf(call) {
		if !slices.Contains(have, g) {
			out = append(out, g)
		}
	}
	return out
}

// checkCallGraph asserts per call site:
//
//	vsfs-eq-callgraph:  callees_VSFS = callees_SFS (same functions, same order)
//	sfs-cg-subset-aux:  callees_SFS ⊆ callees_aux  (indirect calls)
func (c *checker) checkCallGraph() {
	b := c.b
	c.walk(nil, func(in *ir.Instr) {
		if sc, vc, eq := sameCallees(b.SFS, b.VSFS, in); !eq {
			c.failf("vsfs-eq-callgraph", "call ℓ%d: SFS %v ≠ VSFS %v", in.Label, sc, vc)
			return
		}
		if in.IsIndirectCall() {
			for _, g := range extraCallees(b.SFS, b.Aux, in) {
				c.failf("sfs-cg-subset-aux", "call ℓ%d: SFS resolves %s, Andersen does not",
					in.Label, g.Name)
			}
		}
	})
}

// checkStorage asserts the paper's storage claim: VSFS never keeps more
// per-object points-to sets than SFS's IN/OUT sets (vsfs-storage).
func (c *checker) checkStorage() {
	if c.b.VSFS.Stats.PtsSets > c.b.SFS.Stats.PtsSets {
		c.failf("vsfs-storage", "VSFS stores %d sets, SFS %d",
			c.b.VSFS.Stats.PtsSets, c.b.SFS.Stats.PtsSets)
	}
}

// checkWitnesses replays solved facts through the SVFG witness search:
// every (v, o) with o ∈ pts_VSFS(v) and a known definition site must
// have a value-flow explanation from o's allocation to v's definition
// (witness-replay). A missing witness means the solver produced a fact
// the graph cannot justify.
func (c *checker) checkWitnesses() {
	b := c.b
	// Witness search runs on the VSFS-solved clone: it carries the
	// on-the-fly indirect edges the resolution added.
	g := b.VSFS.Graph
	prog := b.Prog

	holds := func(x ir.ID, o ir.Obj) bool {
		if prog.IsPointer(x) {
			return b.VSFS.PointsTo(x).Has(uint32(o))
		}
		return b.VSFS.ObjectSummary(prog.ObjNum(x)).Has(uint32(o))
	}

	checked := 0
	for id := ir.ID(1); int(id) < prog.NumValues(); id++ {
		if c.full {
			return
		}
		if !prog.IsPointer(id) || g.DefSite[id] == 0 {
			continue
		}
		target := g.DefSite[id]
		if prog.Instrs[target].Op == ir.FunEntry {
			// Parameters have no intraprocedural definition to chain
			// back from; their facts are justified at call sites.
			continue
		}
		var bad bool
		b.VSFS.PointsTo(id).ForEach(func(o32 uint32) {
			if bad || c.full {
				return
			}
			if c.opts.MaxWitnesses > 0 && checked >= c.opts.MaxWitnesses {
				return
			}
			checked++
			o := ir.Obj(o32)
			w := g.ExplainPointsTo(holds, id, o)
			if w == nil {
				c.failf("witness-replay", "no witness for %s → %s",
					prog.NameOf(id), prog.ObjValue(o).Name)
				bad = true
				return
			}
			if len(w.Steps) == 0 {
				c.failf("witness-replay", "empty witness for %s → %s",
					prog.NameOf(id), prog.ObjValue(o).Name)
				bad = true
				return
			}
			first, last := w.Steps[0], w.Steps[len(w.Steps)-1]
			if first.Instr == nil || (first.Instr.Op != ir.Alloc && first.Instr.Op != ir.Field) {
				c.failf("witness-replay", "witness for %s → %s does not start at an origin site",
					prog.NameOf(id), prog.ObjValue(o).Name)
				bad = true
				return
			}
			if last.Label != target {
				c.failf("witness-replay", "witness for %s → %s ends at ℓ%d, def site is ℓ%d",
					prog.NameOf(id), prog.ObjValue(o).Name, last.Label, target)
				bad = true
			}
		})
		if c.opts.MaxWitnesses > 0 && checked >= c.opts.MaxWitnesses {
			return
		}
	}
}

// checkCfgfree asserts the CFG-free backend's position in the precision
// chain, pointwise: fsicfg ⊆ sfs ≡ vsfs ⊆ cfgfree ⊆ andersen.
//
//	cfgfree-subset-aux:  pts_cf(x) ⊆ pts_aux(x) for every value —
//	                     soundness of the strong-update windows against
//	                     the analysis cfgfree refines
//	sfs-subset-cfgfree:  pts_SFS(v) ⊆ pts_cf(v) for top-level pointers,
//	                     IN_SFS[ℓ](o) ⊆ Consumed_cf(ℓ, o) and
//	                     OUT_SFS[ℓ](o) ⊆ Yielded_cf(ℓ, o) at every
//	                     μ/χ-referenced access — every staged
//	                     flow-sensitive fact (each of which the witness
//	                     battery justifies against the SVFG) survives in
//	                     the CFG-free answer, anchoring its soundness
//	                     from below
//	cfgfree-cg-bracket:  callees_SFS ⊆ callees_cf ⊆ callees_aux as sets
//	cfgfree-replay:      the solved result replays exactly on the
//	                     independent reference evaluator
func (c *checker) checkCfgfree() {
	b := c.b
	cf := b.CFGFree
	for id := ir.ID(1); int(id) < b.Prog.NumValues(); id++ {
		if c.full {
			return
		}
		cp := cf.PointsTo(id)
		if !cp.SubsetOf(b.Aux.PointsTo(id)) {
			c.failf("cfgfree-subset-aux", "pts(%s): cfgfree %v ⊄ Andersen %v",
				b.Prog.NameOf(id), cp, b.Aux.PointsTo(id))
		}
		if b.Prog.IsPointer(id) && !b.SFS.PointsTo(id).SubsetOf(cp) {
			c.failf("sfs-subset-cfgfree", "pts(%s): SFS %v ⊄ cfgfree %v",
				b.Prog.NameOf(id), b.SFS.PointsTo(id), cp)
		}
	}
	c.walk(func(in *ir.Instr, o ir.Obj) {
		ss, cs := b.SFS.ConsumedSet(in.Label, o), cf.ConsumedSet(in.Label, o)
		if !ss.SubsetOf(cs) {
			c.failf("sfs-subset-cfgfree", "%s ℓ%d, %s: SFS IN %v ⊄ cfgfree consumed %v",
				in.Op, in.Label, b.Prog.ObjValue(o).Name, ss, cs)
		}
		if in.Op != ir.Store {
			return
		}
		so, co := b.SFS.YieldedSet(in.Label, o), cf.YieldedSet(in.Label, o)
		if !so.SubsetOf(co) {
			c.failf("sfs-subset-cfgfree", "store ℓ%d, %s: SFS OUT %v ⊄ cfgfree yielded %v",
				in.Label, b.Prog.ObjValue(o).Name, so, co)
		}
	}, func(in *ir.Instr) {
		for _, g := range extraCallees(b.SFS, cf, in) {
			c.failf("cfgfree-cg-bracket", "call ℓ%d: SFS resolves %s, cfgfree does not",
				in.Label, g.Name)
		}
		for _, g := range extraCallees(cf, b.Aux, in) {
			c.failf("cfgfree-cg-bracket", "call ℓ%d: cfgfree resolves %s, Andersen does not",
				in.Label, g.Name)
		}
	})
	if err := cfgfree.Verify(b.Prog, b.Aux, cf); err != nil {
		c.failf("cfgfree-replay", "%v", err)
	}
}

// checkShape asserts the shape profile is a pure function of (program,
// auxiliary result): computing it twice must be bit-identical
// (shape-deterministic) — the contract report and run-ledger readers
// rely on.
func (c *checker) checkShape() {
	p1 := shape.Of(c.b.Prog, c.b.Aux)
	p2 := shape.Of(c.b.Prog, c.b.Aux)
	if p1 != p2 {
		c.failf("shape-deterministic", "re-computed profile differs: %+v vs %+v", p1, p2)
	}
}

// checkAttribution re-solves every backend with a cost collector
// attached and asserts the conservation rule: per-object charges sum
// exactly to the solver-wide gauges (every counter bump pairs with one
// charge, with object 0 absorbing unattributable work). Gated with the
// re-solve battery because it solves all three backends again.
//
//	attr-conserved-pops:   Σ pops  = NodesProcessed
//	attr-conserved-props:  Σ props = Propagations
//	attr-conserved-sets:   Σ sets  = PtsSets
//	attr-conserved-melds:  Σ melds = MeldOps (VSFS versioning)
func (c *checker) checkAttribution() {
	b := c.b
	conserve := func(backend string, a *obs.ObjectAttr, pops, props, sets, melds int) {
		if a.TotalPops() != uint64(pops) {
			c.failf("attr-conserved-pops", "%s: charged %d, solver processed %d", backend, a.TotalPops(), pops)
		}
		if a.TotalProps() != uint64(props) {
			c.failf("attr-conserved-props", "%s: charged %d, solver propagated %d", backend, a.TotalProps(), props)
		}
		if a.TotalSets() != uint64(sets) {
			c.failf("attr-conserved-sets", "%s: charged %d, solver stored %d", backend, a.TotalSets(), sets)
		}
		if a.TotalMelds() != uint64(melds) {
			c.failf("attr-conserved-melds", "%s: charged %d, versioning melded %d", backend, a.TotalMelds(), melds)
		}
	}

	aS := obs.NewObjectAttr(b.Prog.NumValues())
	s2, err := sfs.SolveContext(obs.WithCollector(context.Background(), aS), b.Graph.Clone())
	if err != nil {
		c.failf("attr-conserved-pops", "SFS attributed re-solve failed: %v", err)
	} else {
		conserve("sfs", aS, s2.Stats.NodesProcessed, s2.Stats.Propagations, s2.Stats.PtsSets, 0)
	}

	aV := obs.NewObjectAttr(b.Prog.NumValues())
	v2, err := core.SolveContext(obs.WithCollector(context.Background(), aV), b.Graph.Clone())
	if err != nil {
		c.failf("attr-conserved-pops", "VSFS attributed re-solve failed: %v", err)
	} else {
		conserve("vsfs", aV, v2.Stats.NodesProcessed, v2.Stats.Propagations,
			v2.Stats.PtsSets, v2.Stats.Versioning.MeldOps)
	}

	aC := obs.NewObjectAttr(b.Prog.NumValues())
	c2, err := cfgfree.SolveContext(obs.WithCollector(context.Background(), aC), b.Prog, b.Aux)
	if err != nil {
		c.failf("attr-conserved-pops", "cfgfree attributed re-solve failed: %v", err)
	} else {
		conserve("cfgfree", aC, c2.Stats.NodesProcessed, c2.Stats.Propagations, c2.Stats.PtsSets, 0)
	}
}

// checkResolve solves both flow-sensitive analyses a second time over
// fresh clones and asserts the results are identical (solve-determinism):
// worklist scheduling and map iteration order must not leak into the
// fixpoint.
func (c *checker) checkResolve() {
	b := c.b
	sfs2 := sfs.Solve(b.Graph.Clone())
	vsfs2 := core.Solve(b.Graph.Clone())
	cf2 := cfgfree.Solve(b.Prog, b.Aux)
	for id := ir.ID(1); int(id) < b.Prog.NumValues(); id++ {
		if c.full {
			return
		}
		// The cfgfree comparison covers objects too: its global contents
		// sets are part of the fixpoint.
		if !b.CFGFree.PointsTo(id).Equal(cf2.PointsTo(id)) {
			c.failf("cfgfree-determinism", "cfgfree re-solve differs at pts(%s)", b.Prog.NameOf(id))
		}
		if !b.Prog.IsPointer(id) {
			continue
		}
		if !b.SFS.PointsTo(id).Equal(sfs2.PointsTo(id)) {
			c.failf("solve-determinism", "SFS re-solve differs at pts(%s)", b.Prog.NameOf(id))
		}
		if !b.VSFS.PointsTo(id).Equal(vsfs2.PointsTo(id)) {
			c.failf("solve-determinism", "VSFS re-solve differs at pts(%s)", b.Prog.NameOf(id))
		}
	}
	// same reports whether a and its re-solve resolve call alike.
	same := func(invariant, backend string, a, again resolver, call *ir.Instr) bool {
		x, y, eq := sameCallees(a, again, call)
		switch {
		case eq:
		case len(x) != len(y):
			c.failf(invariant, "%s re-solve call graph differs at ℓ%d", backend, call.Label)
		default:
			c.failf(invariant, "%s re-solve callee order differs at ℓ%d: %v vs %v", backend, call.Label, x, y)
		}
		return eq
	}
	c.walk(nil, func(in *ir.Instr) {
		if same("solve-determinism", "VSFS", b.VSFS, vsfs2, in) {
			same("cfgfree-determinism", "cfgfree", b.CFGFree, cf2, in)
		}
	})
}

// CountInstrs counts the user-visible instructions of a program — the
// size metric minimized reproducers are measured by. Synthetic nodes
// (FUNENTRY/FUNEXIT/MEMPHI/CallRet) and the globals function's ALLOCs
// are excluded.
func CountInstrs(prog *ir.Program) int {
	n := 0
	for _, f := range prog.Funcs {
		if f == prog.GlobalsFunc() {
			continue
		}
		f.ForEachInstr(func(in *ir.Instr) {
			switch in.Op {
			case ir.Alloc, ir.Copy, ir.Phi, ir.Field, ir.Load, ir.Store, ir.Call:
				n++
			}
		})
	}
	return n
}
