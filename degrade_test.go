package vsfs

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"vsfs/internal/guard"
	"vsfs/internal/workload"
)

// analyzeWith runs demoC under the given fault plan and budget.
func analyzeWith(t *testing.T, mode Mode, plan *guard.FaultPlan, b *guard.Budget) (*Result, error) {
	t.Helper()
	ctx := context.Background()
	if plan != nil {
		ctx = guard.WithFaults(ctx, plan)
	}
	ctx = guard.WithBudget(ctx, b)
	return AnalyzeContext(ctx, demoC, Options{Mode: mode})
}

func TestDegradeOnSolveBudget(t *testing.T) {
	// A slowdown fault in the solve phase charges a huge step count, so
	// the budget is guaranteed to survive every earlier phase and blow
	// in solve — deterministically, whatever the program's real cost.
	// The VSFS run then lands on the first ladder rung: the CFG-free
	// flow-sensitive backend, re-solved under a fresh budget.
	plan := guard.NewFaultPlan(guard.Fault{Phase: "solve", Step: 0, Kind: guard.FaultSlow})
	res, err := analyzeWith(t, VSFS, plan, guard.NewBudget(1<<30, 0, 0))
	if err != nil {
		t.Fatalf("AnalyzeContext: %v", err)
	}
	if !res.Degraded() {
		t.Fatal("result not degraded")
	}
	if res.Mode() != CFGFree || res.RequestedMode() != VSFS {
		t.Fatalf("Mode = %v, RequestedMode = %v, want cfgfree/vsfs", res.Mode(), res.RequestedMode())
	}
	phase, resource := res.DegradedCause()
	if phase != "solve" || resource != "steps" {
		t.Fatalf("DegradedCause = %q/%q", phase, resource)
	}
	if !strings.Contains(res.Degradation(), "CFG-free") {
		t.Fatalf("Degradation = %q, want mention of the CFG-free rung", res.Degradation())
	}
}

// TestLadderBottomsOutOnAndersen drives the run off BOTH rungs: the
// original breach in a pipeline phase plus a second fault targeting the
// cfgfree rung itself. Provenance must keep naming the original breach.
func TestLadderBottomsOutOnAndersen(t *testing.T) {
	plan := guard.NewFaultPlan(
		guard.Fault{Phase: "solve", Step: 0, Kind: guard.FaultSlow},
		guard.Fault{Phase: "cfgfree", Step: 0, Kind: guard.FaultSlow},
	)
	res, err := analyzeWith(t, VSFS, plan, guard.NewBudget(1<<30, 0, 0))
	if err != nil {
		t.Fatalf("AnalyzeContext: %v", err)
	}
	if !res.Degraded() || res.Mode() != FlowInsensitive {
		t.Fatalf("degraded=%v Mode=%v, want degraded andersen", res.Degraded(), res.Mode())
	}
	phase, resource := res.DegradedCause()
	if phase != "solve" || resource != "steps" {
		t.Fatalf("DegradedCause = %q/%q, want original breach solve/steps", phase, resource)
	}
	if !strings.Contains(res.Degradation(), "Andersen") {
		t.Fatalf("Degradation = %q, want mention of the Andersen fallback", res.Degradation())
	}
	plain, err := AnalyzeC(demoC, Options{Mode: FlowInsensitive})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dump() != plain.Dump() {
		t.Errorf("ladder-bottom Dump differs from standalone Andersen:\n%s\nvs\n%s",
			res.Dump(), plain.Dump())
	}
}

// TestDegradedEqualsStandaloneCFGFree pins the single-breach contract:
// whatever pipeline phase breaches, the answers must be exactly what a
// standalone -mode cfgfree run of the same source produces.
func TestDegradedEqualsStandaloneCFGFree(t *testing.T) {
	for _, phase := range []string{"memssa", "svfg", "solve"} {
		plan := guard.NewFaultPlan(guard.Fault{Phase: phase, Step: 0, Kind: guard.FaultSlow})
		deg, err := analyzeWith(t, VSFS, plan, guard.NewBudget(1<<30, 0, 0))
		if err != nil {
			t.Fatalf("%s: degraded run: %v", phase, err)
		}
		if !deg.Degraded() || deg.Mode() != CFGFree {
			t.Fatalf("%s: degraded=%v Mode=%v, want degraded cfgfree", phase, deg.Degraded(), deg.Mode())
		}
		plain, err := AnalyzeC(demoC, Options{Mode: CFGFree})
		if err != nil {
			t.Fatalf("%s: standalone run: %v", phase, err)
		}
		if deg.Dump() != plain.Dump() {
			t.Errorf("%s: degraded Dump differs from standalone cfgfree:\n%s\nvs\n%s",
				phase, deg.Dump(), plain.Dump())
		}
		dr, pr := deg.Report(), plain.Report()
		// The degraded program has been through (part of) the memory-SSA
		// rewrite, so instruction labels differ from the standalone run's
		// raw program even though the facts are identical; compare with
		// labels zeroed.
		for i := range dr.Findings {
			dr.Findings[i].Label = 0
		}
		for i := range pr.Findings {
			pr.Findings[i].Label = 0
		}
		db, _ := Report{Functions: dr.Functions, Findings: dr.Findings}.MarshalIndent()
		pb, _ := Report{Functions: pr.Functions, Findings: pr.Findings}.MarshalIndent()
		if !bytes.Equal(db, pb) {
			t.Errorf("%s: degraded facts differ from standalone cfgfree:\n%s\nvs\n%s", phase, db, pb)
		}
		if !dr.Degraded || dr.Degradation == "" {
			t.Errorf("%s: report degradation fields = %v %q", phase, dr.Degraded, dr.Degradation)
		}
		if pr.Degraded || pr.Degradation != "" {
			t.Errorf("%s: standalone run reports degradation", phase)
		}
		// Stats must be readable even when the SVFG was never built, and
		// must name the rung that actually answered.
		if s := deg.Stats(); s.Mode != "cfgfree" {
			t.Errorf("%s: degraded Stats mode = %q", phase, s.Mode)
		}
	}
}

func TestMemBudgetDegrades(t *testing.T) {
	plan := guard.NewFaultPlan(guard.Fault{Phase: "svfg", Step: 0, Kind: guard.FaultAllocSpike})
	res, err := analyzeWith(t, SFS, plan, guard.NewBudget(0, 1<<40, 0))
	if err != nil {
		t.Fatalf("AnalyzeContext: %v", err)
	}
	phase, resource := res.DegradedCause()
	if !res.Degraded() || phase != "svfg" || resource != "mem" {
		t.Fatalf("degraded=%v cause=%q/%q", res.Degraded(), phase, resource)
	}
	// The alloc-spike charge lives in the original budget; the rung's
	// fresh budget re-bases, so the CFG-free retry must succeed.
	if res.Mode() != CFGFree {
		t.Fatalf("Mode = %v, want cfgfree rung", res.Mode())
	}
}

// TestRequestedCFGFreeDegradesStraightToAndersen: the ladder has no
// rung between cfgfree and the auxiliary result.
func TestRequestedCFGFreeDegradesStraightToAndersen(t *testing.T) {
	plan := guard.NewFaultPlan(guard.Fault{Phase: "solve", Step: 0, Kind: guard.FaultSlow})
	res, err := analyzeWith(t, CFGFree, plan, guard.NewBudget(1<<30, 0, 0))
	if err != nil {
		t.Fatalf("AnalyzeContext: %v", err)
	}
	if !res.Degraded() || res.Mode() != FlowInsensitive || res.RequestedMode() != CFGFree {
		t.Fatalf("degraded=%v Mode=%v RequestedMode=%v", res.Degraded(), res.Mode(), res.RequestedMode())
	}
}

func TestPanicIsolatedInEveryPhase(t *testing.T) {
	for _, phase := range guard.PipelinePhases {
		plan := guard.NewFaultPlan(guard.Fault{Phase: phase, Step: 0, Kind: guard.FaultPanic})
		res, err := analyzeWith(t, VSFS, plan, nil)
		var pe *guard.PhaseError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: err = %v (res=%v), want *guard.PhaseError", phase, err, res)
		}
		if pe.Phase != phase {
			t.Fatalf("PhaseError.Phase = %q, want %q", pe.Phase, phase)
		}
		if pe.ProgramHash != guard.Hash([]byte(demoC)) {
			t.Fatalf("%s: PhaseError.ProgramHash = %q", phase, pe.ProgramHash)
		}
		if res != nil {
			t.Fatalf("%s: panic run returned a result", phase)
		}
	}
}

// TestPanicInLadderRungPropagates: a panic inside the cfgfree rung is a
// correctness failure, not a resource problem — it must surface as a
// *guard.PhaseError, never silently bottom out on Andersen.
func TestPanicInLadderRungPropagates(t *testing.T) {
	plan := guard.NewFaultPlan(
		guard.Fault{Phase: "solve", Step: 0, Kind: guard.FaultSlow},
		guard.Fault{Phase: "cfgfree", Step: 0, Kind: guard.FaultPanic},
	)
	res, err := analyzeWith(t, VSFS, plan, guard.NewBudget(1<<30, 0, 0))
	var pe *guard.PhaseError
	if !errors.As(err, &pe) || res != nil {
		t.Fatalf("res=%v err=%v, want *guard.PhaseError", res, err)
	}
	if pe.Phase != "cfgfree" {
		t.Fatalf("PhaseError.Phase = %q, want cfgfree", pe.Phase)
	}
}

func TestCancellationNeverDegrades(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := AnalyzeContext(ctx, demoC, Options{Mode: VSFS})
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("cancelled analyze: res=%v err=%v", res, err)
	}
}

func TestAndersenBudgetBreachFailsOutright(t *testing.T) {
	// A breach during the auxiliary phase has no fallback to offer.
	plan := guard.NewFaultPlan(guard.Fault{Phase: "andersen", Step: 0, Kind: guard.FaultSlow})
	res, err := analyzeWith(t, VSFS, plan, guard.NewBudget(1<<30, 0, 0))
	var be *guard.ErrBudgetExceeded
	if !errors.As(err, &be) || res != nil {
		t.Fatalf("res=%v err=%v, want *ErrBudgetExceeded", res, err)
	}
	if be.Phase != "andersen" {
		t.Fatalf("breach phase = %q", be.Phase)
	}
}

// TestBudgetIgnoresOtherSolves: a budget counts only what its own run's
// phases charge. du under a memory limit 10% above its solo spend is
// not degraded, and reports the same bytes as the solo run, even after
// an unbudgeted bash solve ran between arming the budget and solving.
func TestBudgetIgnoresOtherSolves(t *testing.T) {
	du := workload.ProfileByName("du")
	solve := func(b *guard.Budget, p *workload.Profile) *Result {
		t.Helper()
		res, err := AnalyzeProgramContext(guard.WithBudget(context.Background(), b), p.Build(), Options{Mode: VSFS})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	full := guard.NewBudget(0, math.MaxInt64, 0)
	solo := solve(full, du)
	want, err := solo.Report().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}

	limit := full.BytesUsed() + full.BytesUsed()/10
	b := guard.NewBudget(0, limit, 0)
	solve(nil, workload.ProfileByName("bash"))
	res := solve(b, du)
	if res.Degraded() {
		t.Fatalf("du degraded under %d bytes, 10%% above its solo spend of %d: %s",
			limit, full.BytesUsed(), res.Degradation())
	}
	got, err := res.Report().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("du's report under the budget differs from its solo run's")
	}
	if b.BytesUsed() != full.BytesUsed() {
		t.Fatalf("du charged %d bytes, its solo run %d", b.BytesUsed(), full.BytesUsed())
	}
}
