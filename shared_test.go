package vsfs

import (
	"testing"

	"vsfs/internal/ir"
	"vsfs/internal/workload"
)

// TestQueriesLeaveSetsFrozen: a solved Result shares one set between
// equal contents, so a query that mutated a set it was handed would
// corrupt every holder. After two reports, PointsToVar and MayAlias on
// each function's first two reported variables, Explain on the first
// variable of the first two functions, and ObjectSummary on every
// object, every set the queries read must hash as before. A witness
// search on the largest profiles can take a minute, so Explain runs on
// the small profiles TestReportDigests checks under -short.
func TestQueriesLeaveSetsFrozen(t *testing.T) {
	for _, p := range workload.Profiles() {
		t.Run(p.Name, func(t *testing.T) {
			if (testing.Short() || raceEnabled) && !digestShortProfiles[p.Name] {
				t.Skip("large profiles skipped under -short and the race detector")
			}
			r, err := AnalyzeIR(p.Build().String(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			before := r.SetsDigest()
			r.Report()
			explained := 0
			for _, f := range r.Report().Functions {
				if len(f.Vars) == 0 {
					continue
				}
				vars := f.Vars[:min(2, len(f.Vars))]
				for _, v := range vars {
					r.PointsToVar(f.Func, v.Var)
				}
				if len(vars) == 2 {
					r.MayAlias(f.Func, vars[0].Var, f.Func, vars[1].Var)
				}
				if explained < 2 && digestShortProfiles[p.Name] {
					r.Explain(f.Func, vars[0].Var)
					explained++
				}
			}
			for o := range ir.Obj(r.prog.NumObjects()) {
				r.backend.ObjectSummary(o)
			}
			if after := r.SetsDigest(); after != before {
				t.Fatalf("sets digest %x after the queries, %x before", after, before)
			}
		})
	}
}
