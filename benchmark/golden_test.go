package main

import (
	"strings"
	"sync"
	"testing"

	"vsfs"
)

func sampleReport(prefix string) vsfs.Report {
	return vsfs.Report{
		Mode: "vsfs",
		Functions: []vsfs.FuncReport{{
			Func:    "main",
			Vars:    []vsfs.VarFacts{{Var: prefix + "p1", PointsTo: []string{prefix + "g1.obj", prefix + "o2"}}},
			Callees: []string{"f3"},
		}},
		Findings: []vsfs.Finding{{
			Kind: "null-deref", Func: "main", Label: 4, File: "a.vir",
			Message: "load through " + prefix + "p1, which points to nothing here",
		}},
		Stats: vsfs.Summary{Mode: "vsfs", Propagations: 10},
		Shape: vsfs.Shape{Instrs: 12, Functions: 2},
	}
}

func mustDigest(t *testing.T, rep vsfs.Report, seed int64) string {
	t.Helper()
	d, err := digest(rep, seed)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDigestIgnoresStatsModeAndFile(t *testing.T) {
	want := mustDigest(t, sampleReport(""), 1)

	other := sampleReport("")
	other.Mode, other.Stats = "sfs", vsfs.Summary{Mode: "sfs", Propagations: 99, PtsSets: 7}
	other.Findings[0].File = "elsewhere/b.vir"
	if got := mustDigest(t, other, 1); got != want {
		t.Error("digest changed with stats, mode or finding file")
	}

	if got := mustDigest(t, sampleReport(tag(2)), 2); got != want {
		t.Error("digest changed under seed 2's renaming")
	}

	for name, mutate := range map[string]func(*vsfs.Report){
		"points-to": func(r *vsfs.Report) { r.Functions[0].Vars[0].PointsTo = r.Functions[0].Vars[0].PointsTo[:1] },
		"callees":   func(r *vsfs.Report) { r.Functions[0].Callees = nil },
		"findings":  func(r *vsfs.Report) { r.Findings[0].Label = 5 },
		"shape":     func(r *vsfs.Report) { r.Shape.Instrs = 13 },
	} {
		rep := sampleReport("")
		mutate(&rep)
		if mustDigest(t, rep, 1) == want {
			t.Errorf("digest ignored a change to %s", name)
		}
	}
}

func TestGoldensCoverEveryProgram(t *testing.T) {
	g, err := loadGoldens("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range goldenPrograms() {
		if len(g[name]) != 64 {
			t.Errorf("no golden digest for %s", name)
		}
	}
}

func TestVerifierCatchesWrongReport(t *testing.T) {
	g, err := loadGoldens("..")
	if err != nil {
		t.Fatal(err)
	}
	const seed = 5
	p, err := generate("du", seed)
	if err != nil {
		t.Fatal(err)
	}
	r, err := vsfs.AnalyzeIR(p.src, vsfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	v := newVerifier(g, seed)
	if err := v.checkReport("du", r.Report()); err != nil {
		t.Errorf("correct report rejected: %v", err)
	}
	if err := v.checkReport("dpkg", r.Report()); err == nil || !strings.Contains(err.Error(), "differs from golden") {
		t.Errorf("du's report accepted as dpkg's: %v", err)
	}
	if err := newVerifier(g, seed+1).checkReport("du", r.Report()); err == nil {
		t.Error("report verified under the wrong seed's renaming")
	}

	// The serve clients share one verifier.
	raw, err := r.Report().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				if err := v.check("du", raw, false); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
}
