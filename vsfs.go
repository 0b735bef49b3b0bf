// Package vsfs is the public façade of this repository: a flow-sensitive
// pointer-analysis library implementing "Object Versioning for
// Flow-Sensitive Pointer Analysis" (Barbar, Sui, Chen — CGO 2021) and
// everything it stands on, in pure Go.
//
// The pipeline is:
//
//	mini-C or textual IR
//	  → partial-SSA IR                  (internal/lang, internal/irparse, internal/ir)
//	  → Andersen's auxiliary analysis   (internal/andersen)
//	  → memory SSA (χ/μ, MEMPHI)        (internal/memssa)
//	  → sparse value-flow graph         (internal/svfg)
//	  → SFS or VSFS main phase          (internal/sfs, internal/core)
//
// VSFS (the paper's contribution, internal/core) produces bit-for-bit
// the same points-to results as SFS while storing one global points-to
// set per (object, version) instead of per-node IN/OUT sets.
//
// A third backend, internal/cfgfree, branches off after the auxiliary
// phase: an Andersen-style flow-sensitive solver that consumes the
// partial-SSA IR directly, with no memory SSA or SVFG construction. It
// is less precise than SFS/VSFS but strictly more precise than
// Andersen (sfs ⊆ cfgfree ⊆ andersen pointwise), which also makes it
// the intermediate rung of the degradation ladder: a VSFS/SFS run that
// exhausts its budget retries on the CFG-free backend before giving up
// flow-sensitivity entirely.
//
// This façade exposes string-keyed queries so quick clients need no
// knowledge of the IR. Heavier clients inside this module import the
// internal packages directly (see examples/ and cmd/).
package vsfs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"time"

	"vsfs/internal/andersen"
	"vsfs/internal/bitset"
	"vsfs/internal/cfgfree"
	"vsfs/internal/checker"
	"vsfs/internal/core"
	"vsfs/internal/guard"
	"vsfs/internal/ir"
	"vsfs/internal/irparse"
	"vsfs/internal/lang"
	"vsfs/internal/memssa"
	"vsfs/internal/obs"
	"vsfs/internal/sfs"
	"vsfs/internal/shape"
	"vsfs/internal/svfg"
)

// Mode selects the main-phase analysis.
type Mode int

const (
	// VSFS is the paper's versioned staged flow-sensitive analysis
	// (default).
	VSFS Mode = iota
	// SFS is the staged flow-sensitive baseline.
	SFS
	// FlowInsensitive answers queries from Andersen's analysis alone.
	FlowInsensitive
	// CFGFree is the CFG-free Andersen-style flow-sensitive backend
	// (internal/cfgfree): flow-sensitive precision on straight-line
	// store/load sequences with no memory-SSA or SVFG construction.
	CFGFree
)

func (m Mode) String() string {
	switch m {
	case VSFS:
		return "vsfs"
	case SFS:
		return "sfs"
	case FlowInsensitive:
		return "andersen"
	case CFGFree:
		return "cfgfree"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode maps a CLI string to a Mode.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "vsfs", "":
		return VSFS, nil
	case "sfs":
		return SFS, nil
	case "andersen", "ander", "fi":
		return FlowInsensitive, nil
	case "cfgfree", "cfg-free", "cf":
		return CFGFree, nil
	}
	return 0, fmt.Errorf("unknown analysis mode %q (want vsfs, sfs, cfgfree, or andersen)", s)
}

// Input selects the source language accepted by AnalyzeContext.
type Input int

const (
	// InputC is mini-C source (default).
	InputC Input = iota
	// InputIR is the textual IR format of internal/irparse.
	InputIR
)

func (i Input) String() string {
	if i == InputIR {
		return "ir"
	}
	return "c"
}

// ParseInput maps a CLI/API string to an Input.
func ParseInput(s string) (Input, error) {
	switch strings.ToLower(s) {
	case "c", "minic", "mini-c", "":
		return InputC, nil
	case "ir", "vir":
		return InputIR, nil
	}
	return 0, fmt.Errorf("unknown input language %q (want c or ir)", s)
}

// Options configures Analyze.
type Options struct {
	Mode Mode
	// Input selects the source language for AnalyzeContext; AnalyzeC and
	// AnalyzeIR override it.
	Input Input
	// Filename is the display name of the source, threaded onto the
	// program (ir.Program.File) so checker diagnostics can point at
	// file:line:col. Purely cosmetic; empty is fine.
	Filename string
	// Attr enables per-object cost attribution: solver work (worklist
	// pops, propagations, materialised sets, meld operations) is charged
	// to the owning abstract object and surfaced via Result.HotObjects
	// and Report.HotObjects. Off by default — the disabled path costs
	// one predicted nil-check per counter bump.
	Attr bool
}

// Shape is the Table II-style program feature vector computed during
// the auxiliary phase; see internal/shape.
type Shape = shape.Profile

// Result is a solved program: flow-(in)sensitive points-to facts plus
// the resolved call graph. A Result is immutable once returned and safe
// for concurrent queries.
type Result struct {
	mode Mode

	prog *ir.Program
	aux  *andersen.Result
	g    *svfg.Graph

	// backend is the solved result that answers every query: the SFS,
	// VSFS or CFG-free result, or aux itself for Andersen runs and runs
	// that bottomed out on the flow-insensitive floor. It never holds a
	// nil pointer.
	backend backend

	// phases is the run's phase record: one entry per phase run, in run
	// order, appended by phase.
	phases []obs.Phase

	// hash identifies the source text (guard.Hash); "" for runs over
	// pre-built programs.
	hash string
	// shape is the Table II-style feature vector, computed right after
	// the auxiliary phase and therefore present even on degraded runs.
	shape Shape
	// attr holds per-object cost attribution when Options.Attr was set;
	// nil otherwise. On degraded runs it accumulates across ladder
	// rungs, so conservation against single-solver gauges holds only
	// for clean runs.
	attr *obs.ObjectAttr
	// budgetSteps/budgetBytes record governed-run spend at completion
	// (0 when no budget was attached).
	budgetSteps int64
	budgetBytes int64

	// Degradation state: when a resource budget is exhausted after the
	// auxiliary phase has completed, the run walks down a ladder instead
	// of failing: a VSFS/SFS run first retries on the CFG-free backend
	// (flow-sensitive, much cheaper) under a fresh budget, and only if
	// that breaches too falls back to the flow-insensitive Andersen
	// result. mode and backend are rewritten to the rung that answered,
	// so every query answers exactly as a standalone run of that
	// backend would.
	requested        Mode
	degraded         bool
	degradation      string
	degradedPhase    string
	degradedResource string
}

// backend is the query surface every solver's Result shares: the
// checkers' flow facts (PointsTo, ObjectSummary, ConsumedSet) plus the
// resolved call graph. *andersen.Result, *sfs.Result, *core.Result and
// *cfgfree.Result all satisfy it under the same method names.
type backend interface {
	checker.FlowFacts
	CalleesOf(call *ir.Instr) []*ir.Function
}

// solved converts a solver's (result, error) pair into a backend,
// leaving the interface nil on error rather than holding a nil pointer.
func solved[T backend](res T, err error) (backend, error) {
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Phases returns the run's phase record: every pipeline phase the run
// entered, in run order, with its wall time. A degraded run's CFG-free
// rung appears under guard.PhaseRung.
func (r *Result) Phases() []obs.Phase { return slices.Clone(r.phases) }

// PhaseWall returns the wall time the run spent in name, one of
// guard.PipelinePhases, summed over the phase record. The CFG-free rung
// counts as guard.PhaseSolve, the main phase it stands in for, so the
// walls of guard.PipelinePhases sum to the whole record.
func (r *Result) PhaseWall(name string) time.Duration {
	var d time.Duration
	for _, p := range r.phases {
		if p.Name == name || p.Name == guard.PhaseRung && name == guard.PhaseSolve {
			d += p.Wall
		}
	}
	return d
}

// Shape returns the Table II-style program feature vector. It is
// computed right after the auxiliary phase, so it is valid even on
// degraded runs, and deterministic: re-analysing the same source
// reproduces it bit-for-bit.
func (r *Result) Shape() Shape { return r.shape }

// Attr returns the per-object cost attribution of the run, or nil when
// Options.Attr was not set. On degraded runs the counters accumulate
// across ladder rungs.
func (r *Result) Attr() *obs.ObjectAttr { return r.attr }

// HotObjects returns the k most expensive abstract objects of the run
// by attributed solver cost (propagations + pops + melds), or nil when
// attribution was off. Object ID 0 is the "(unattributed)" bucket
// holding top-level (non-object) work.
func (r *Result) HotObjects(k int) []obs.HotObject {
	if r.attr == nil {
		return nil
	}
	return r.attr.TopK(k, func(o uint32) string { return r.prog.NameOf(ir.ID(o)) })
}

// RunRecord is one entry of the persistent run ledger (obs.Ledger): a
// compact, append-only summary of a completed analysis. Fields are
// append-only so old ledgers stay parseable.
type RunRecord struct {
	Time        string `json:"time"`
	Program     string `json:"program,omitempty"` // source hash (guard.Hash)
	Requested   string `json:"requested"`
	Backend     string `json:"backend"` // mode that actually answered
	Degraded    bool   `json:"degraded,omitempty"`
	Degradation string `json:"degradation,omitempty"`
	Shape       Shape  `json:"shape"`

	AndersenMs float64 `json:"andersenMs"`
	MemSSAMs   float64 `json:"memSSAMs"`
	SVFGMs     float64 `json:"svfgMs"`
	SolveMs    float64 `json:"solveMs"`
	TotalMs    float64 `json:"totalMs"`

	BudgetSteps int64 `json:"budgetSteps,omitempty"`
	BudgetBytes int64 `json:"budgetBytes,omitempty"`

	Findings int `json:"findings"`
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// RunRecord builds the ledger entry for this run. The caller supplies
// the timestamp and the findings count (len(r.Check()) or a cached
// value) so building a record never re-runs the checkers. Its
// millisecond fields read the phase record: SolveMs includes the
// CFG-free rung, and TotalMs is the whole record.
func (r *Result) RunRecord(now time.Time, findings int) RunRecord {
	var total time.Duration
	for _, p := range r.phases {
		total += p.Wall
	}
	return RunRecord{
		Time:        now.UTC().Format(time.RFC3339Nano),
		Program:     r.hash,
		Requested:   r.requested.String(),
		Backend:     r.mode.String(),
		Degraded:    r.degraded,
		Degradation: r.degradation,
		Shape:       r.shape,
		AndersenMs:  millis(r.PhaseWall(guard.PhaseAndersen)),
		MemSSAMs:    millis(r.PhaseWall(guard.PhaseMemSSA)),
		SVFGMs:      millis(r.PhaseWall(guard.PhaseSVFG)),
		SolveMs:     millis(r.PhaseWall(guard.PhaseSolve)),
		TotalMs:     millis(total),
		BudgetSteps: r.budgetSteps,
		BudgetBytes: r.budgetBytes,
		Findings:    findings,
	}
}

// Mode returns the analysis mode that produced the answers: the
// requested mode, or the degradation-ladder rung that answered
// (CFGFree or FlowInsensitive) after a budget breach.
func (r *Result) Mode() Mode { return r.mode }

// RequestedMode returns the mode the caller asked for, which differs
// from Mode only on degraded runs.
func (r *Result) RequestedMode() Mode { return r.requested }

// Degraded reports whether the run exhausted a resource budget after
// the auxiliary phase and fell back down the ladder (to the CFG-free
// or flow-insensitive result; Mode tells which).
func (r *Result) Degraded() bool { return r.degraded }

// Degradation returns the human-readable reason for the fallback, or
// "" when the run completed at full precision.
func (r *Result) Degradation() string { return r.degradation }

// DegradedCause returns the pipeline phase and budget resource that
// triggered the fallback ("", "" when not degraded).
func (r *Result) DegradedCause() (phase, resource string) {
	return r.degradedPhase, r.degradedResource
}

// degradeTo rewrites the Result to answer every query from the ladder
// rung m, whose solved result is b. Degradation provenance (phase,
// resource, Degradation text) always names the original breach be,
// never a rung's.
func (r *Result) degradeTo(m Mode, b backend, be *guard.ErrBudgetExceeded) {
	r.mode, r.backend, r.degraded = m, b, true
	r.degradedPhase, r.degradedResource = be.Phase, string(be.Resource)
	result := "flow-insensitive (Andersen)"
	if m == CFGFree {
		result = "CFG-free flow-sensitive"
	}
	r.degradation = fmt.Sprintf("%s budget exceeded in %s phase (limit %d); fell back to %s result",
		be.Resource, be.Phase, be.Limit, result)
}

// degradeVia is the degradation ladder. A requested VSFS/SFS run that
// breached its budget retries on the CFG-free backend — still
// flow-sensitive, but with none of the memory-SSA/SVFG construction
// cost — under a fresh budget with the original envelope (the original
// is spent, and the rung's phases charge the fresh one). Only if the
// rung itself breaches does the run bottom out on the auxiliary
// Andersen result. A requested CFGFree or FlowInsensitive run has no
// rung above Andersen and degrades directly. A panic or cancellation
// inside the rung propagates as an error — those must not silently
// lose precision.
func (r *Result) degradeVia(ctx context.Context, be *guard.ErrBudgetExceeded) error {
	if r.requested == VSFS || r.requested == SFS {
		if b := guard.BudgetFrom(ctx); b != nil {
			ctx = guard.WithBudget(ctx, guard.NewBudget(b.Limits()))
		}
		// The breach may have interrupted the memory-SSA pass
		// mid-rewrite, leaving instruction labels stale; renumbering is
		// idempotent and restores the label table. The CFG-free facts
		// themselves are invariant under memssa's rewrites (entry
		// pre-blocks, CallRet markers, MEMPHIs) — only labels shift.
		r.prog.Renumber()
		var cf *cfgfree.Result
		err := r.phase(ctx, guard.PhaseRung, func(sp *obs.Span) (err error) {
			sp.Arg("after", be.Phase)
			cf, err = cfgfree.SolveContext(ctx, r.prog, r.aux)
			return err
		})
		if err == nil {
			r.degradeTo(CFGFree, cf, be)
			return nil
		}
		if _, ok := budgetBreach(err); !ok {
			return err
		}
	}
	r.degradeTo(FlowInsensitive, r.aux, be)
	return nil
}

// phase runs one pipeline phase: it opens the phase's span, reads the
// clock once, runs fn under guard.Recover and appends the phase's wall
// time to the run's phase record, whether fn failed or not. fn may
// attach arguments to the span.
func (r *Result) phase(ctx context.Context, name string, fn func(sp *obs.Span) error) error {
	span := name
	if name == guard.PhaseRung {
		span += "-retry"
	}
	sp := obs.StartSpan(ctx, span)
	start := time.Now()
	err := guard.Recover(ctx, name, r.hash, func() error { return fn(sp) })
	wall := time.Since(start)
	sp.End()
	r.phases = append(r.phases, obs.Phase{Name: name, Wall: wall})
	return err
}

// AnalyzeC compiles mini-C source and solves it.
func AnalyzeC(src string, opts Options) (*Result, error) {
	opts.Input = InputC
	return AnalyzeContext(context.Background(), src, opts)
}

// AnalyzeIR parses textual IR and solves it.
func AnalyzeIR(src string, opts Options) (*Result, error) {
	opts.Input = InputIR
	return AnalyzeContext(context.Background(), src, opts)
}

// AnalyzeContext compiles src in the language selected by opts.Input and
// solves it, aborting with ctx.Err() when the context is cancelled or
// its deadline passes. The solver worklist loops poll the context, so
// cancellation takes effect promptly even mid-fixpoint.
//
// Resource governance rides on the context: attach a *guard.Budget with
// guard.WithBudget to bound the run, in which case a budget exhausted
// after the auxiliary phase walks the Result down the degradation
// ladder (Degraded reports true) instead of failing. A panic in any
// phase is isolated and returned as a *guard.PhaseError.
func AnalyzeContext(ctx context.Context, src string, opts Options) (*Result, error) {
	r := &Result{hash: guard.Hash([]byte(src))}
	err := r.phase(ctx, guard.PhaseParse, func(sp *obs.Span) (err error) {
		sp.Arg("input", opts.Input.String()).Arg("bytes", len(src))
		if opts.Input == InputIR {
			r.prog, err = irparse.Parse(src)
		} else {
			r.prog, err = lang.Compile(src)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	r.prog.File = opts.Filename
	return r.analyze(ctx, opts)
}

// AnalyzeProgram runs the staged pipeline over an already-built program.
// The program must be finalized and not previously analysed (the
// memory-SSA pass inserts nodes).
func AnalyzeProgram(prog *ir.Program, opts Options) (*Result, error) {
	return AnalyzeProgramContext(context.Background(), prog, opts)
}

// AnalyzeProgramContext is AnalyzeProgram with cancellation and
// resource governance; see AnalyzeContext.
func AnalyzeProgramContext(ctx context.Context, prog *ir.Program, opts Options) (*Result, error) {
	return (&Result{prog: prog}).analyze(ctx, opts)
}

// budgetBreach extracts the degradation trigger from a phase error:
// only a typed budget breach qualifies. Cancellation and deadlines
// propagate (the caller aborted), and panics propagate (correctness
// failures must not silently lose precision).
func budgetBreach(err error) (*guard.ErrBudgetExceeded, bool) {
	var be *guard.ErrBudgetExceeded
	if errors.As(err, &be) {
		return be, true
	}
	return nil, false
}

// analyze runs the auxiliary analysis, then the staged phases of
// opts.Mode. A budget breach after the auxiliary phase walks down the
// degradation ladder instead of failing the run.
func (r *Result) analyze(ctx context.Context, opts Options) (*Result, error) {
	r.mode, r.requested = opts.Mode, opts.Mode
	if opts.Attr {
		r.attr = obs.NewObjectAttr(r.prog.NumValues())
		ctx = obs.WithCollector(ctx, r.attr)
	}
	err := r.phase(ctx, guard.PhaseAndersen, func(sp *obs.Span) (err error) {
		if r.aux, err = andersen.AnalyzeContext(ctx, r.prog); err == nil {
			st := r.aux.Stats
			sp.Arg("pops", st.Pops).Arg("propagations", st.Propagations).
				Arg("storeSets", st.Store.Sets).Arg("memoHits", st.Store.MemoHits).
				Arg("memoMisses", st.Store.MemoMisses)
		}
		return err
	})
	if err != nil {
		// Nothing to degrade to: the auxiliary result is the fallback.
		return nil, err
	}
	// The shape profile needs only the IR and the auxiliary result, so
	// degraded runs carry it too.
	r.shape = shape.Of(r.prog, r.aux)
	// FlowInsensitive answers from the auxiliary result; its pipeline
	// stops at the pristine SVFG (see WriteDot).
	r.backend = r.aux
	if err := r.staged(ctx, opts.Mode); err != nil {
		be, ok := budgetBreach(err)
		if !ok {
			return nil, err
		}
		if err := r.degradeVia(ctx, be); err != nil {
			return nil, err
		}
	}
	if b := guard.BudgetFrom(ctx); b != nil {
		r.budgetSteps = b.StepsUsed()
		r.budgetBytes = b.BytesUsed()
	}
	return r, nil
}

// staged runs the phases after the auxiliary analysis and leaves the
// solved result in r.backend. The CFG-free backend consumes the
// partial-SSA program directly, with no memory SSA and no SVFG. Its
// worklist ticks under its own phase name, but for budget and fault
// attribution its phase is solve, like every other main phase.
func (r *Result) staged(ctx context.Context, mode Mode) error {
	if mode != CFGFree {
		var mssa *memssa.Result
		err := r.phase(ctx, guard.PhaseMemSSA, func(*obs.Span) (err error) {
			mssa, err = memssa.BuildContext(ctx, r.prog, r.aux)
			return err
		})
		if err == nil {
			err = r.phase(ctx, guard.PhaseSVFG, func(sp *obs.Span) error {
				g, err := svfg.BuildContext(ctx, r.prog, r.aux, mssa)
				if err == nil {
					r.g = g
					sp.Arg("nodes", g.NumNodes).Arg("directEdges", g.NumDirectEdges).
						Arg("indirectEdges", g.NumIndirectEdges)
				}
				return err
			})
		}
		if err != nil {
			return err
		}
	}
	return r.phase(ctx, guard.PhaseSolve, func(sp *obs.Span) (err error) {
		sp.Arg("mode", mode.String())
		switch mode {
		case SFS:
			r.backend, err = solved(sfs.SolveContext(ctx, r.g))
		case VSFS:
			r.backend, err = solved(core.SolveContext(ctx, r.g))
		case CFGFree:
			r.backend, err = solved(cfgfree.SolveContext(ctx, r.prog, r.aux))
		}
		return err
	})
}

// matchingVars returns the pointer temps belonging to the source-level
// variable name within a function: mini-C lowers each read of x to a
// temp named "x.<n>", so the union over those temps is every value x
// may hold at some read. Exact matches (for IR-level names) also count.
func (r *Result) matchingVars(fn, name string) []ir.ID {
	f := r.prog.FuncByName(fn)
	var out []ir.ID
	prefix := name + "."
	for id := ir.ID(1); int(id) < r.prog.NumValues(); id++ {
		if !r.prog.IsPointer(id) {
			continue
		}
		n := r.prog.Value(id).Name
		if n != name && !strings.HasPrefix(n, prefix) {
			continue
		}
		if strings.Contains(n, ".addr") {
			continue
		}
		if f != nil && !definedIn(r.prog, f, id) {
			continue
		}
		out = append(out, id)
	}
	return out
}

func definedIn(prog *ir.Program, f *ir.Function, v ir.ID) bool {
	for _, p := range f.Params {
		if p == v {
			return true
		}
	}
	found := false
	f.ForEachInstr(func(in *ir.Instr) {
		if in.Def == v {
			found = true
		}
	})
	return found
}

// storageObjects returns the abstract objects backing a source variable:
// the mini-C lowering names a local x in fn "fn.x" and a global g
// "g.obj"; IR-level address-taken objects may match by bare name.
func (r *Result) storageObjects(fn, name string) []ir.Obj {
	var out []ir.Obj
	candidates := map[string]bool{name: true, name + ".obj": true}
	if fn != "" {
		candidates[fn+"."+name] = true
	}
	for o := range ir.Obj(r.prog.NumObjects()) {
		if candidates[r.prog.ObjValue(o).Name] {
			out = append(out, o)
		}
	}
	return out
}

// PointsToVar returns the sorted names of the abstract objects the named
// variable may point to: the union over every read of the variable plus
// everything its storage location may hold. Pass fn == "" to match the
// name anywhere in the program.
func (r *Result) PointsToVar(fn, name string) []string {
	merged := r.varSet(fn, name)
	var out []string
	merged.ForEach(func(o uint32) { out = append(out, r.prog.ObjValue(ir.Obj(o)).Name) })
	sort.Strings(out)
	return out
}

func (r *Result) varSet(fn, name string) *bitset.Sparse {
	merged := bitset.New()
	for _, v := range r.matchingVars(fn, name) {
		merged.UnionWith(r.backend.PointsTo(v))
	}
	for _, o := range r.storageObjects(fn, name) {
		merged.UnionWith(r.backend.ObjectSummary(o))
	}
	return merged
}

// MayAlias reports whether two variables may point to a common object.
func (r *Result) MayAlias(fn1, v1, fn2, v2 string) bool {
	return r.varSet(fn1, v1).Intersects(r.varSet(fn2, v2))
}

// CallGraph returns the resolved call graph as function → sorted callee
// names. Synthetic functions (__globals__, __cinit__) are omitted.
func (r *Result) CallGraph() map[string][]string {
	out := make(map[string][]string)
	for _, f := range r.prog.Funcs {
		if strings.HasPrefix(f.Name, "__") {
			continue
		}
		seen := map[string]bool{}
		f.ForEachInstr(func(in *ir.Instr) {
			if in.Op != ir.Call {
				return
			}
			for _, callee := range r.backend.CalleesOf(in) {
				if !strings.HasPrefix(callee.Name, "__") {
					seen[callee.Name] = true
				}
			}
		})
		callees := make([]string, 0, len(seen))
		for n := range seen {
			callees = append(callees, n)
		}
		sort.Strings(callees)
		out[f.Name] = callees
	}
	return out
}

// Functions returns the program's function names in definition order,
// omitting synthetic ones.
func (r *Result) Functions() []string {
	var out []string
	for _, f := range r.prog.Funcs {
		if !strings.HasPrefix(f.Name, "__") {
			out = append(out, f.Name)
		}
	}
	return out
}

// Summary aggregates headline statistics for the analysed program.
type Summary struct {
	Mode          string `json:"mode"`
	Functions     int    `json:"functions"`
	SVFGNodes     int    `json:"svfgNodes"`
	DirectEdges   int    `json:"directEdges"`
	IndirectEdges int    `json:"indirectEdges"`
	TopLevelVars  int    `json:"topLevelVars"`
	AddressTaken  int    `json:"addressTaken"`

	// Main-phase effort; zero for FlowInsensitive.
	NodesProcessed    int `json:"nodesProcessed"`
	Propagations      int `json:"propagations"`
	Changed           int `json:"changed"`
	PtsSets           int `json:"ptsSets"`
	WorklistHighWater int `json:"worklistHighWater"`

	// Auxiliary-phase effort.
	AuxPropagations      int `json:"auxPropagations"`
	AuxWorklistHighWater int `json:"auxWorklistHighWater"`

	// VSFS-only versioning facts. Prelabels is fixpoint-shaped. The
	// others measure the one-pass meld labelling: DistinctVersions is
	// the labels interned (incl. ε), MeldOps the melds that grew a
	// value-flow component's pending label, and MeldIterations the
	// components labelled.
	Prelabels        int `json:"prelabels"`
	DistinctVersions int `json:"distinctVersions"`
	MeldOps          int `json:"meldOps"`
	MeldIterations   int `json:"meldIterations"`
}

// Stats returns the run's Summary.
func (r *Result) Stats() Summary {
	s := Summary{
		Mode:      r.mode.String(),
		Functions: len(r.prog.Funcs),
	}
	// r.g is nil when the run degraded before the SVFG was assembled.
	if r.g != nil {
		s.SVFGNodes = r.g.NumNodes
		s.DirectEdges = r.g.NumDirectEdges
		s.IndirectEdges = r.g.NumIndirectEdges
		s.TopLevelVars = r.g.NumTopLevel
		s.AddressTaken = r.g.NumAddressTaken
	}
	s.AuxPropagations = r.aux.Stats.Propagations
	s.AuxWorklistHighWater = r.aux.Stats.WorklistHW
	// Main-phase effort; the Andersen backend has none beyond the
	// auxiliary counters above. SFS and VSFS count theirs in the one
	// flow-sensitive engine; CFG-free runs on Andersen's.
	var eng *sfs.EngineStats
	switch b := r.backend.(type) {
	case *sfs.Result:
		eng, s.PtsSets = &b.Stats.EngineStats, b.Stats.PtsSets
	case *core.Result:
		eng, s.PtsSets = &b.Stats.EngineStats, b.Stats.PtsSets
		s.Prelabels = b.Stats.Versioning.Prelabels
		s.DistinctVersions = b.Stats.Versioning.DistinctVersions
		s.MeldOps = b.Stats.Versioning.MeldOps
		s.MeldIterations = b.Stats.Versioning.Iterations
	case *cfgfree.Result:
		st := b.Stats
		s.NodesProcessed, s.Propagations, s.Changed = st.NodesProcessed, st.Propagations, st.Changed
		s.PtsSets, s.WorklistHighWater = st.PtsSets, st.WorklistHW
	}
	if eng != nil {
		s.NodesProcessed, s.Propagations, s.Changed = eng.NodesProcessed, eng.Propagations, eng.Changed
		s.WorklistHighWater = eng.WorklistHW
	}
	return s
}

// Explain returns human-readable value-flow witnesses for every object
// the named variable may point to — the "why" behind each points-to
// fact. Only available for VSFS and SFS runs (the witnesses are paths
// through the SVFG those backends solved over; CFG-free and
// flow-insensitive facts have no such graph behind them); empty
// otherwise.
func (r *Result) Explain(fn, name string) []string {
	switch r.backend.(type) {
	case *sfs.Result, *core.Result:
	default:
		return nil
	}
	holds := func(x ir.ID, o ir.Obj) bool {
		if r.prog.IsPointer(x) {
			return r.backend.PointsTo(x).Has(uint32(o))
		}
		return r.backend.ObjectSummary(r.prog.ObjNum(x)).Has(uint32(o))
	}
	var out []string
	for _, v := range r.matchingVars(fn, name) {
		r.backend.PointsTo(v).ForEach(func(o uint32) {
			if w := r.g.ExplainPointsTo(holds, v, ir.Obj(o)); w != nil {
				out = append(out, w.Format(r.prog))
			}
		})
	}
	return out
}

// WriteDot writes the run's SVFG in Graphviz dot format. A
// FlowInsensitive run builds the SVFG but never solves over it, so its
// graph is the pristine one; SFS and VSFS runs also carry the indirect
// edges their solve resolved on the fly. It fails when the run built no
// SVFG: CFG-free runs, and runs that degraded before the SVFG phase
// completed.
func (r *Result) WriteDot(w io.Writer) error {
	if r.g == nil {
		return errors.New("no SVFG: the run did not build one")
	}
	return r.g.WriteDot(w)
}

// SetsDigest hashes every set the Result's queries hand out, each
// once: every pointer's points-to set, every object's summary and, when
// the run built an SVFG, every node's μ and χ sets and what the node
// consumes of each of their objects. Solvers let the holders of equal
// contents share one set and a Result is immutable, so the digest never
// changes; tests compare it across queries to catch a caller that
// mutates a shared set.
func (r *Result) SetsDigest() uint64 {
	const prime = 1099511628211
	var h uint64
	seen := make(map[*bitset.Sparse]bool)
	add := func(s *bitset.Sparse) {
		if !seen[s] {
			seen[s] = true
			h = (h ^ s.Hash()) * prime
		}
	}
	for v := ir.ID(1); int(v) < r.prog.NumValues(); v++ {
		if r.prog.IsPointer(v) {
			add(r.backend.PointsTo(v))
		}
	}
	for o := range ir.Obj(r.prog.NumObjects()) {
		add(r.backend.ObjectSummary(o))
	}
	if r.g != nil {
		for l := uint32(1); l < uint32(len(r.prog.Instrs)); l++ {
			for _, objs := range [2]*bitset.Sparse{r.g.MSSA.MuOf(l), r.g.MSSA.ChiOf(l)} {
				add(objs)
				objs.ForEach(func(o uint32) { add(r.backend.ConsumedSet(l, ir.Obj(o))) })
			}
		}
	}
	return h
}

// funcFacts returns every non-synthetic function's points-to facts,
// in definition order and without callees: each source-level variable
// whose temps' points-to sets have a non-empty union, sorted by name,
// with that union's object names, sorted. A variable's temps are the
// parameters and definitions named after it ("x" or "x.<n>"; ".addr"
// slots and synthetic "__" names are left out). The name list of each
// distinct union is built once, through an Interner over the unions, and
// every variable with that union shares it. Report and Dump both render
// these facts, so the two can never drift apart.
func (r *Result) funcFacts() []FuncReport {
	type member struct {
		name string
		v    ir.ID
	}
	var (
		funcs   []FuncReport
		vars    []VarFacts
		ends    []int // ends[i] is where funcs[i]'s variables end in vars
		members []member
		lists   = [][]string{nil} // union ID -> sorted object names; ID 0 is ∅
	)
	unions := bitset.NewInterner()
	for _, f := range r.prog.Funcs {
		if strings.HasPrefix(f.Name, "__") {
			continue
		}
		members = members[:0]
		collect := func(v ir.ID) {
			name := r.prog.Value(v).Name
			if i := strings.LastIndexByte(name, '.'); i > 0 {
				name = name[:i]
			}
			if !strings.HasSuffix(name, ".addr") && !strings.HasPrefix(name, "__") {
				members = append(members, member{name, v})
			}
		}
		for _, p := range f.Params {
			collect(p)
		}
		f.ForEachInstr(func(in *ir.Instr) {
			if in.Def != ir.None {
				collect(in.Def)
			}
		})
		slices.SortFunc(members, func(a, b member) int { return strings.Compare(a.name, b.name) })
		for lo := 0; lo < len(members); {
			hi := lo + 1
			for hi < len(members) && members[hi].name == members[lo].name {
				hi++
			}
			// A one-temp variable's union is the solver's own frozen
			// set, which the Interner may keep as it is.
			set := r.backend.PointsTo(members[lo].v)
			if hi-lo > 1 {
				set = set.Clone()
				for _, m := range members[lo+1 : hi] {
					set.UnionWith(r.backend.PointsTo(m.v))
				}
			}
			if !set.IsEmpty() {
				id := unions.CanonID(set)
				if int(id) == len(lists) {
					lists = append(lists, r.objNames(set))
				}
				vars = append(vars, VarFacts{Var: members[lo].name, PointsTo: lists[id]})
			}
			lo = hi
		}
		funcs = append(funcs, FuncReport{Func: f.Name})
		ends = append(ends, len(vars))
	}
	start := 0
	for i, end := range ends {
		if end > start {
			funcs[i].Vars = vars[start:end:end]
		}
		start = end
	}
	return funcs
}

// objNames renders a points-to set as sorted object names.
func (r *Result) objNames(set *bitset.Sparse) []string {
	objs := make([]string, 0, set.Len())
	set.ForEach(func(o uint32) { objs = append(objs, r.prog.ObjValue(ir.Obj(o)).Name) })
	sort.Strings(objs)
	return objs
}

// Dump writes a human-readable points-to report: for every function,
// every source-level pointer variable and the objects it may point to.
// It is Report's facts rendered by Report.Dump.
func (r *Result) Dump() string {
	return Report{Mode: r.mode.String(), Functions: r.funcFacts()}.Dump()
}
