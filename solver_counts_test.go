package vsfs

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"vsfs/internal/guard"
	"vsfs/internal/workload"
)

var updateCounts = flag.Bool("update-counts", false, "rewrite "+countsFixture)

// countsFixture holds, per (profile, mode), the solver effort counts a
// refactor must leave unchanged. TestReportDigests pins the answers;
// this pins the work done to reach them.
const countsFixture = "testdata/solver_counts.json"

// solverCounts is the part of Summary that counts graph size and solver
// effort, plus the steps the run charges its budget; timings and
// high-water marks are left out.
type solverCounts struct {
	IndirectEdges    int `json:"indirectEdges"`
	SVFGNodes        int `json:"svfgNodes"`
	NodesProcessed   int `json:"nodesProcessed"`
	Propagations     int `json:"propagations"`
	Changed          int `json:"changed"`
	PtsSets          int `json:"ptsSets"`
	Prelabels        int `json:"prelabels"`
	DistinctVersions int `json:"distinctVersions"`
	MeldOps          int `json:"meldOps"`
	MeldIterations   int `json:"meldIterations"`
	// The auxiliary analysis's effort, from its own Stats.
	AuxPops         int `json:"auxPops"`
	AuxPropagations int `json:"auxPropagations"`
	AuxSCCCollapses int `json:"auxSCCCollapses"`
	// Steps is what an unlimited budget is charged: the spend that
	// decides where a budgeted run degrades.
	Steps int64 `json:"steps"`
}

// TestSolverCounts checks the flow-sensitive solvers' Stats on every
// profile against the committed fixture. Regenerate it with
// -update-counts, and only from a commit whose effort is known to be
// right.
func TestSolverCounts(t *testing.T) {
	want := map[string]solverCounts{}
	if !*updateCounts {
		data, err := os.ReadFile(countsFixture)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]solverCounts{}
	for _, p := range workload.Profiles() {
		if (testing.Short() || raceEnabled) && !*updateCounts && !digestShortProfiles[p.Name] {
			continue
		}
		src := p.Build().String()
		for _, mode := range []Mode{VSFS, SFS} {
			key := p.Name + "/" + mode.String()
			ctx := guard.WithBudget(context.Background(), guard.NewBudget(math.MaxInt64, 0, 0))
			r, err := AnalyzeContext(ctx, src, Options{Mode: mode, Input: InputIR})
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			s := r.Stats()
			c := solverCounts{
				s.IndirectEdges, s.SVFGNodes, s.NodesProcessed, s.Propagations, s.Changed, s.PtsSets,
				s.Prelabels, s.DistinctVersions, s.MeldOps, s.MeldIterations,
				r.aux.Stats.Pops, r.aux.Stats.Propagations, r.aux.Stats.SCCCollapses,
				r.RunRecord(time.Time{}, 0).BudgetSteps,
			}
			got[key] = c
			if !*updateCounts && c != want[key] {
				t.Errorf("%s: counts %+v, fixture has %+v", key, c, want[key])
			}
		}
	}
	if *updateCounts {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.FromSlash(countsFixture), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
