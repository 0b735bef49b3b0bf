package vsfs

import (
	"context"
	"slices"
	"testing"
	"time"

	"vsfs/internal/guard"
	"vsfs/internal/obs"
)

func phaseNames(r *Result) []string {
	var names []string
	for _, p := range r.Phases() {
		names = append(names, p.Name)
	}
	return names
}

// checkRunRecordReadsPhases asserts that RunRecord's millisecond fields
// are the phase record's walls: SolveMs includes the CFG-free rung and
// TotalMs is the whole record.
func checkRunRecordReadsPhases(t *testing.T, r *Result) {
	t.Helper()
	sum := map[string]time.Duration{}
	var total time.Duration
	for _, p := range r.Phases() {
		sum[p.Name] += p.Wall
		total += p.Wall
	}
	rec := r.RunRecord(time.Time{}, 0)
	for _, c := range []struct {
		field string
		got   float64
		want  time.Duration
	}{
		{"AndersenMs", rec.AndersenMs, sum[guard.PhaseAndersen]},
		{"MemSSAMs", rec.MemSSAMs, sum[guard.PhaseMemSSA]},
		{"SVFGMs", rec.SVFGMs, sum[guard.PhaseSVFG]},
		{"SolveMs", rec.SolveMs, sum[guard.PhaseSolve] + sum[guard.PhaseRung]},
		{"TotalMs", rec.TotalMs, total},
	} {
		if c.got != millis(c.want) {
			t.Errorf("%s = %v, want %v from the phase record %v", c.field, c.got, millis(c.want), r.Phases())
		}
	}
	var walls time.Duration
	for _, ph := range guard.PipelinePhases {
		walls += r.PhaseWall(ph)
	}
	if walls != total {
		t.Errorf("PhaseWall over PipelinePhases sums to %v, want the whole record %v", walls, total)
	}
}

func TestPhasesRecordRunOrder(t *testing.T) {
	staged := []string{"parse", "andersen", "memssa", "svfg", "solve"}
	for _, c := range []struct {
		mode Mode
		want []string
	}{
		{VSFS, staged},
		{SFS, staged},
		// FlowInsensitive builds the pristine SVFG and solves nothing.
		{FlowInsensitive, staged},
		{CFGFree, []string{"parse", "andersen", "solve"}},
	} {
		r, err := AnalyzeC(demoC, Options{Mode: c.mode})
		if err != nil {
			t.Fatalf("%v: %v", c.mode, err)
		}
		if got := phaseNames(r); !slices.Equal(got, c.want) {
			t.Errorf("%v: Phases = %v, want %v", c.mode, got, c.want)
		}
		checkRunRecordReadsPhases(t, r)
	}
}

// TestPhasesRecordLadder covers degraded runs: the CFG-free rung gets
// its own record entry after the breached phase, whether it answers or
// breaches too.
func TestPhasesRecordLadder(t *testing.T) {
	for _, c := range []struct {
		name   string
		faults []guard.Fault
		mode   Mode
		want   []string
	}{
		{"memssa breach, rung answers",
			[]guard.Fault{{Phase: "memssa", Kind: guard.FaultSlow}},
			CFGFree, []string{"parse", "andersen", "memssa", "cfgfree"}},
		{"memssa breach, rung breaches",
			[]guard.Fault{{Phase: "memssa", Kind: guard.FaultSlow}, {Phase: "cfgfree", Kind: guard.FaultSlow}},
			FlowInsensitive, []string{"parse", "andersen", "memssa", "cfgfree"}},
		{"solve breach, rung answers",
			[]guard.Fault{{Phase: "solve", Kind: guard.FaultSlow}},
			CFGFree, []string{"parse", "andersen", "memssa", "svfg", "solve", "cfgfree"}},
	} {
		r, err := analyzeWith(t, VSFS, guard.NewFaultPlan(c.faults...), guard.NewBudget(1<<30, 0, 0))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !r.Degraded() || r.Mode() != c.mode {
			t.Fatalf("%s: degraded=%v Mode=%v, want degraded %v", c.name, r.Degraded(), r.Mode(), c.mode)
		}
		if got := phaseNames(r); !slices.Equal(got, c.want) {
			t.Errorf("%s: Phases = %v, want %v", c.name, got, c.want)
		}
		checkRunRecordReadsPhases(t, r)
	}
}

// TestPhasesRecordMatchesSpans: each record entry has a span of the
// same name on the run's trace, except the rung, whose span keeps its
// cfgfree-retry name.
func TestPhasesRecordMatchesSpans(t *testing.T) {
	tr := obs.NewTrace()
	ctx := guard.WithFaults(obs.NewContext(context.Background(), tr),
		guard.NewFaultPlan(guard.Fault{Phase: "solve", Kind: guard.FaultSlow}))
	ctx = guard.WithBudget(ctx, guard.NewBudget(1<<30, 0, 0))
	r, err := AnalyzeContext(ctx, demoC, Options{})
	if err != nil {
		t.Fatal(err)
	}
	spans := map[string]bool{}
	for _, e := range tr.Events() {
		spans[e.Name] = true
	}
	for _, name := range phaseNames(r) {
		if name == guard.PhaseRung {
			name = "cfgfree-retry"
		}
		if !spans[name] {
			t.Errorf("record entry %q has no span (spans %v)", name, spans)
		}
	}
}

// TestPhasesIsACopy: the record a caller gets back cannot change the
// Result's own.
func TestPhasesIsACopy(t *testing.T) {
	r, err := AnalyzeC(demoC, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := r.Phases()
	p[0].Name = "changed"
	if r.Phases()[0].Name != "parse" {
		t.Errorf("Phases()[0] = %v after the caller changed its copy", r.Phases()[0])
	}
}
