package oracle

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"vsfs"
	"vsfs/internal/guard"
)

// degradablePhases are the pipeline phases whose budget breach has a
// sound fallback: by the time any of them runs, the auxiliary Andersen
// result exists, so the ladder can retry on the CFG-free backend (which
// needs only the program and that result) and, failing that, answer
// from the auxiliary result itself — each rung over-approximating
// whatever the staged phases would have computed (DESIGN.md §9, §11).
var degradablePhases = []string{"memssa", "svfg", "solve"}

// violations accumulates breaches up to the configured cap, mirroring
// the solver battery's checker for the facade-level checks.
type violations struct {
	out []Violation
	max int
}

func (v *violations) failf(invariant, format string, args ...any) {
	if v.full() {
		return
	}
	v.out = append(v.out, Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
}

func (v *violations) full() bool { return v.max > 0 && len(v.out) >= v.max }

// analyzeIR runs the facade on textual IR under the given fault plan
// and budget.
func analyzeIR(src string, mode vsfs.Mode, plan *guard.FaultPlan, b *guard.Budget) (*vsfs.Result, error) {
	ctx := context.Background()
	if plan != nil {
		ctx = guard.WithFaults(ctx, plan)
	}
	ctx = guard.WithBudget(ctx, b)
	return vsfs.AnalyzeContext(ctx, src, vsfs.Options{Mode: mode, Input: vsfs.InputIR})
}

// factsJSON projects a result onto the facts the degradation contract
// is defined over: per-function points-to sets, call graph, and checker
// findings. A run degraded before the SVFG exists reports findings at
// pre-memssa instruction labels (memssa inserts nodes and renumbers),
// so zeroLabels drops the label column for those comparisons; the facts
// themselves must still agree.
func factsJSON(r *vsfs.Result, zeroLabels bool) []byte {
	rep := r.Report()
	if zeroLabels {
		for i := range rep.Findings {
			rep.Findings[i].Label = 0
		}
	}
	data, err := vsfs.Report{Functions: rep.Functions, Findings: rep.Findings}.MarshalIndent()
	if err != nil {
		return []byte("marshal error: " + err.Error())
	}
	return data
}

// CheckDegradation forces a budget blowout in each post-auxiliary phase
// of the facade pipeline and asserts the degradation-ladder contract.
// A single breach lands the run on the intermediate rung: the result is
// marked degraded with the original cause, answers in CFG-free mode,
// and its facts are exactly a standalone -mode cfgfree run's — never a
// partial staged result. A second fault targeting the rung itself
// ("cfgfree" phase) drives the run to the bottom of the ladder, where
// the facts must be exactly the standalone Andersen run's.
//
// src is textual IR, the oracle's native format.
func CheckDegradation(src string, opts Options) []Violation {
	opts = opts.withDefaults()
	v := &violations{max: opts.MaxViolations}

	plain, err := analyzeIR(src, vsfs.FlowInsensitive, nil, nil)
	if err != nil {
		return []Violation{{Invariant: "degrade-baseline", Detail: err.Error()}}
	}
	cfree, err := analyzeIR(src, vsfs.CFGFree, nil, nil)
	if err != nil {
		return []Violation{{Invariant: "degrade-baseline", Detail: err.Error()}}
	}

	// A slowdown fault at a phase's first checkpoint charges a huge step
	// count, so the budget deterministically survives every earlier
	// phase and blows exactly there. The rung's fresh budget then
	// carries the run to the CFG-free result, unless a second fault
	// breaches the rung too: then provenance must keep naming the
	// original breach and the facts must be Andersen's.
	rungs := []struct {
		faults []guard.Fault // beyond the phase's own
		suffix string
		mode   vsfs.Mode
		alone  *vsfs.Result
		eq     string
	}{
		{nil, "", vsfs.CFGFree, cfree, "degrade-eq-cfgfree"},
		{[]guard.Fault{{Phase: "cfgfree", Step: 0, Kind: guard.FaultSlow}}, "+cfgfree", vsfs.FlowInsensitive, plain, "degrade-eq-aux"},
	}
	for _, phase := range degradablePhases {
		for _, rung := range rungs {
			if v.full() {
				return v.out
			}
			name := phase + rung.suffix
			plan := guard.NewFaultPlan(append([]guard.Fault{{Phase: phase, Step: 0, Kind: guard.FaultSlow}}, rung.faults...)...)
			deg, err := analyzeIR(src, vsfs.VSFS, plan, guard.NewBudget(1<<30, 0, 0))
			switch {
			case err != nil:
				v.failf("degrade-run", "%s: budget blowout became an error: %v", name, err)
				continue
			case !deg.Degraded() || deg.Degradation() == "":
				v.failf("degrade-flag", "%s: over-budget run not marked degraded", name)
				continue
			case deg.Mode() != rung.mode:
				v.failf("degrade-mode", "%s: degraded mode = %v, want %v", name, deg.Mode(), rung.mode)
				continue
			}
			if cause, _ := deg.DegradedCause(); cause != phase {
				v.failf("degrade-cause", "%s: degradation attributed to %q, want the original breach", name, cause)
			}
			// The degraded program went through (part of) the memory-SSA
			// rewrite, so labels differ from the standalone run's raw
			// program even though the facts agree; compare label-free.
			if dj, aj := factsJSON(deg, true), factsJSON(rung.alone, true); !bytes.Equal(dj, aj) {
				v.failf(rung.eq, "%s: degraded facts differ from standalone %v at %s", name, rung.mode, jsonDiffPath(dj, aj))
			}
			if deg.Dump() != rung.alone.Dump() {
				v.failf(rung.eq, "%s: degraded Dump differs from standalone %v", name, rung.mode)
			}
			if rep := deg.Report(); !rep.Degraded || rep.Degradation == "" {
				v.failf("degrade-report", "%s: report does not carry the degradation marker", name)
			}
		}
	}
	return v.out
}

// CheckFaults is the fault-injection battery: it derives a
// deterministic fault from seed, runs the facade under it with finite
// budgets, and asserts the only possible outcomes are the governed
// ones — a typed phase/budget error or a sound result. An escaped
// panic would kill the harness process, which is exactly what the
// battery exists to rule out.
func CheckFaults(src string, seed int64, opts Options) []Violation {
	opts = opts.withDefaults()
	v := &violations{max: opts.MaxViolations}

	baseline, err := analyzeIR(src, vsfs.VSFS, nil, nil)
	if err != nil {
		return []Violation{{Invariant: "fault-baseline", Detail: err.Error()}}
	}
	baseDump := baseline.Dump()

	// Panic isolation: a panic injected into any phase must surface as
	// a *guard.PhaseError naming that phase, never a partial result.
	for _, phase := range guard.PipelinePhases {
		if v.full() {
			return v.out
		}
		plan := guard.NewFaultPlan(guard.Fault{Phase: phase, Step: 0, Kind: guard.FaultPanic})
		res, err := analyzeIR(src, vsfs.VSFS, plan, nil)
		var pe *guard.PhaseError
		if !errors.As(err, &pe) {
			v.failf("fault-panic-isolated", "%s: injected panic produced err %v, want *PhaseError", phase, err)
			continue
		}
		if pe.Phase != phase {
			v.failf("fault-panic-isolated", "%s: PhaseError.Phase = %q", phase, pe.Phase)
		}
		if _, ok := pe.Value.(*guard.InjectedPanic); !ok {
			v.failf("fault-panic-isolated", "%s: PhaseError.Value = %v, want *InjectedPanic", phase, pe.Value)
		}
		if res != nil {
			v.failf("fault-panic-isolated", "%s: panicked run also returned a result", phase)
		}
	}

	// Seeded fault: whatever it does, the outcome must be one of the
	// governed shapes, and any returned result must be sound.
	plan := guard.SeededPlan(seed)
	res, err := analyzeIR(src, vsfs.VSFS, plan, guard.NewBudget(1<<30, 1<<40, 0))
	switch {
	case err != nil:
		var pe *guard.PhaseError
		var be *guard.ErrBudgetExceeded
		switch {
		case errors.As(err, &pe):
			if _, ok := pe.Value.(*guard.InjectedPanic); !ok {
				v.failf("fault-organic-panic", "seed %d: organic panic under faults: %v", seed, pe)
			}
		case errors.As(err, &be):
			// Only the phases without a fallback may fail outright on
			// budget; later breaches must degrade instead.
			if be.Phase != "parse" && be.Phase != "andersen" {
				v.failf("fault-no-fallback", "seed %d: %s-phase breach returned an error instead of degrading", seed, be.Phase)
			}
		default:
			v.failf("fault-untyped-error", "seed %d: ungoverned error: %v", seed, err)
		}
	case res.Degraded():
		// The ladder has two rungs; compare against the standalone run
		// of whichever backend actually answered.
		eq := map[vsfs.Mode]string{vsfs.CFGFree: "degrade-eq-cfgfree", vsfs.FlowInsensitive: "degrade-eq-aux"}[res.Mode()]
		if eq == "" {
			v.failf("degrade-mode", "seed %d: degraded run answers in mode %v", seed, res.Mode())
			break
		}
		alone, perr := analyzeIR(src, res.Mode(), nil, nil)
		if perr != nil {
			v.failf("fault-baseline", "seed %d: standalone %v failed: %v", seed, res.Mode(), perr)
			break
		}
		if rj, aj := factsJSON(res, true), factsJSON(alone, true); !bytes.Equal(rj, aj) {
			v.failf(eq, "seed %d: degraded facts differ from standalone %v at %s", seed, res.Mode(), jsonDiffPath(rj, aj))
		}
	default:
		// The fault did not bite (e.g. its step index was past the
		// phase's checkpoints): the result must be the baseline's.
		if res.Dump() != baseDump {
			v.failf("fault-unsound-result", "seed %d: non-degraded faulted run differs from fault-free run", seed)
		}
	}
	return v.out
}
