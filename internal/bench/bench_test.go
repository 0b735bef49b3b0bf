package bench

import (
	"math"
	"strings"
	"testing"

	"vsfs/internal/workload"
)

// tinyProfile is a fast profile for harness tests.
func tinyProfile() workload.Profile {
	cfg := workload.DefaultRandomConfig()
	cfg.Funcs = 8
	cfg.InstrsPerFunc = 30
	return workload.Profile{Name: "tiny", Desc: "test profile", Seed: 42, Cfg: cfg}
}

func TestRunProfilePopulatesRow(t *testing.T) {
	row := RunProfile(tinyProfile(), Options{Runs: 1})
	if row.Nodes == 0 || row.IndirectEdges == 0 || row.TopLevel == 0 {
		t.Errorf("Table II fields empty: %+v", row)
	}
	if row.SFSTime <= 0 || row.VSFSTime <= 0 {
		t.Errorf("times not measured: sfs=%v vsfs=%v", row.SFSTime, row.VSFSTime)
	}
	if row.SFSMem <= 0 || row.VSFSMem <= 0 {
		t.Errorf("memory models empty: %d %d", row.SFSMem, row.VSFSMem)
	}
	if row.Speedup <= 0 || row.MemRatio <= 0 {
		t.Errorf("ratios not computed: %f %f", row.Speedup, row.MemRatio)
	}
	if row.SFSOOM {
		t.Error("OOM marked without a limit")
	}
}

// TestBackendRows pins the per-backend quantities: every backend's
// time and modelled memory must be measured, and the JSON artifact
// must carry one BackendRow per (bench, backend) pair.
func TestBackendRows(t *testing.T) {
	row := RunProfile(tinyProfile(), Options{Runs: 1})
	if row.CfgfreeTime <= 0 || row.CfgfreeMem <= 0 {
		t.Errorf("cfgfree not measured: t=%v mem=%d", row.CfgfreeTime, row.CfgfreeMem)
	}
	if row.AndersenMem <= 0 {
		t.Errorf("AndersenMem = %d, want > 0", row.AndersenMem)
	}
	if row.CfgfreeStats.PtsSets == 0 {
		t.Errorf("cfgfree stats empty: %+v", row.CfgfreeStats)
	}

	rep := JSONReportOf([]Row{row})
	if len(rep.Backends) != 4 {
		t.Fatalf("backends = %d rows, want 4: %+v", len(rep.Backends), rep.Backends)
	}
	want := []string{"andersen", "sfs", "vsfs", "cfgfree"}
	for i, br := range rep.Backends {
		if br.Bench != row.Profile.Name || br.Backend != want[i] {
			t.Errorf("backend row %d = %+v, want backend %q", i, br, want[i])
		}
		if br.Ms <= 0 || br.MemMB <= 0 {
			t.Errorf("backend row %q not measured: %+v", br.Backend, br)
		}
	}

	got := FormatBackends([]Row{row})
	for _, w := range []string{"tiny", "cfree t", "ander MB"} {
		if !strings.Contains(got, w) {
			t.Errorf("backend table missing %q:\n%s", w, got)
		}
	}
}

func TestMemLimitMarksOOM(t *testing.T) {
	row := RunProfile(tinyProfile(), Options{Runs: 1, MemLimit: 1})
	if !row.SFSOOM {
		t.Error("1-byte limit did not mark SFS OOM")
	}
}

// TestOOMRowExcludedFromRatios is the regression test for the OOM ratio
// bug: an OOMed SFS baseline has no meaningful time or memory, so the
// row's Speedup/MemRatio must stay zero, both diff columns must render
// as "—", and neither geomean may include the row.
func TestOOMRowExcludedFromRatios(t *testing.T) {
	oom := RunProfile(tinyProfile(), Options{Runs: 1, MemLimit: 1})
	if !oom.SFSOOM {
		t.Fatal("limit did not trigger OOM")
	}
	if oom.Speedup != 0 || oom.MemRatio != 0 {
		t.Fatalf("OOM row kept ratios: speedup=%f memRatio=%f", oom.Speedup, oom.MemRatio)
	}

	// A healthy row alongside: the averages must come from it alone.
	ok := RunProfile(tinyProfile(), Options{Runs: 1})
	rows := []Row{oom, ok}

	t3 := FormatTable3(rows)
	oomLine := ""
	for _, line := range strings.Split(t3, "\n") {
		if strings.Contains(line, "OOM") {
			oomLine = line
		}
	}
	if oomLine == "" {
		t.Fatalf("no OOM line rendered:\n%s", t3)
	}
	if strings.Count(oomLine, "—") != 2 {
		t.Errorf("OOM line should dash out both diff columns: %q", oomLine)
	}
	if strings.Contains(oomLine, "0.00x") {
		t.Errorf("OOM line renders a zero ratio instead of a dash: %q", oomLine)
	}

	rep := JSONReportOf(rows)
	if rep.Rows[0].Speedup != 0 || rep.Rows[0].MemRatio != 0 {
		t.Errorf("JSON OOM row kept ratios: %+v", rep.Rows[0])
	}
	if math.Abs(rep.GeoMeanSpeedup-ok.Speedup) > 1e-9 {
		t.Errorf("speedup geomean = %f, want the healthy row's %f (OOM excluded)",
			rep.GeoMeanSpeedup, ok.Speedup)
	}
	if math.Abs(rep.GeoMeanMemRatio-ok.MemRatio) > 1e-9 {
		t.Errorf("mem-ratio geomean = %f, want the healthy row's %f (OOM excluded)",
			rep.GeoMeanMemRatio, ok.MemRatio)
	}
}

func TestFormatting(t *testing.T) {
	rows := Run([]workload.Profile{tinyProfile()}, Options{Runs: 1}, nil)
	t2 := FormatTable2(rows)
	t3 := FormatTable3(rows)
	for _, want := range []string{"tiny", "# Nodes", "I.Edges"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table II missing %q:\n%s", want, t2)
		}
	}
	for _, want := range []string{"tiny", "Time diff", "Mem diff", "Average"} {
		if !strings.Contains(t3, want) {
			t.Errorf("Table III missing %q:\n%s", want, t3)
		}
	}
	// OOM formatting path.
	rows[0].SFSOOM = true
	if got := FormatTable3(rows); !strings.Contains(got, "OOM") {
		t.Errorf("OOM row not rendered:\n%s", got)
	}
}

func TestGeoMean(t *testing.T) {
	if g := geoMean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Errorf("geoMean(2,8) = %f", g)
	}
	if g := geoMean([]float64{5, 0, -1}); math.Abs(g-5) > 1e-9 {
		t.Errorf("geoMean skipping nonpositive = %f", g)
	}
	if g := geoMean(nil); g != 0 {
		t.Errorf("geoMean(nil) = %f", g)
	}
}

func TestSanity(t *testing.T) {
	if err := Sanity(tinyProfile()); err != nil {
		t.Errorf("Sanity: %v", err)
	}
}

func TestSweepRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep point is slow")
	}
	points := RunSweep([]float64{0.2}, nil)
	if len(points) != 1 || points[0].Speedup <= 0 {
		t.Errorf("sweep = %+v", points)
	}
	if !strings.Contains(FormatSweep(points), "0.20") {
		t.Error("sweep formatting missing point")
	}
}

func TestVersionStats(t *testing.T) {
	rows := RunVersionStats([]workload.Profile{tinyProfile()}, nil)
	if len(rows) != 1 {
		t.Fatal("no rows")
	}
	r := rows[0]
	if r.IndirectEdges == 0 || r.SFSSets == 0 || r.VSFSSets == 0 {
		t.Errorf("row empty: %+v", r)
	}
	if r.VSFSSets > r.SFSSets {
		t.Errorf("VSFS stores more sets than SFS: %+v", r)
	}
	if r.VersionConstraints > r.IndirectEdges {
		t.Errorf("more version constraints than edges: %+v", r)
	}
	if !strings.Contains(FormatVersionStats(rows), "tiny") {
		t.Error("formatting missing row")
	}
}

// TestRunProfileMeasuresCheckerOverhead pins the new -check overhead
// quantities: the suite must actually run (nonzero time) and the JSON
// artifact must carry them.
func TestRunProfileMeasuresCheckerOverhead(t *testing.T) {
	p := workload.Profiles()[0]
	row := RunProfile(p, Options{Runs: 1})
	if row.CheckTime <= 0 {
		t.Errorf("CheckTime = %v, want > 0", row.CheckTime)
	}
	if row.CheckFindings < 0 {
		t.Errorf("CheckFindings = %d", row.CheckFindings)
	}
	rep := JSONReportOf([]Row{row})
	if rep.Rows[0].CheckMs != ms(row.CheckTime) || rep.Rows[0].CheckFindings != row.CheckFindings {
		t.Errorf("JSON row = %+v, want checkMs %v / findings %d",
			rep.Rows[0], ms(row.CheckTime), row.CheckFindings)
	}
}
