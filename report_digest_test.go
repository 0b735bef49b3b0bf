package vsfs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"vsfs/internal/workload"
)

var updateDigests = flag.Bool("update-digests", false, "rewrite "+digestFixture)

// digestFixture holds, per (profile, mode), the hash of the facts the
// report states. It pins every backend's output on every Table II
// profile, so a refactor that must not change results is checked in one
// test run rather than by hand.
const digestFixture = "testdata/report_digests.json"

// digestModes are the backends whose reports the fixture pins.
var digestModes = []Mode{VSFS, SFS, CFGFree, FlowInsensitive}

// digestShortProfiles are the profiles checked under -short, and under
// the race detector, which slows the large ones past the test timeout.
var digestShortProfiles = map[string]bool{"du": true, "dpkg": true, "nano": true, "psql": true}

// reportDigest hashes the projection of a report the benchmark's goldens
// use: functions, findings without their file, and shape. Stats (solver
// effort) and mode are left out.
func reportDigest(rep Report) (string, error) {
	findings := make([]Finding, len(rep.Findings))
	for i, f := range rep.Findings {
		f.File = ""
		findings[i] = f
	}
	b, err := json.Marshal(struct {
		Functions []FuncReport `json:"functions"`
		Findings  []Finding    `json:"findings"`
		Shape     Shape        `json:"shape"`
	}{rep.Functions, findings, rep.Shape})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// TestReportDigests checks that every backend's report on every profile
// is byte-identical to the committed fixture. Regenerate the fixture
// with -update-digests, and only from a commit whose reports are known
// to be right.
func TestReportDigests(t *testing.T) {
	want := map[string]string{}
	if !*updateDigests {
		data, err := os.ReadFile(digestFixture)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]string{}
	for _, p := range workload.Profiles() {
		if (testing.Short() || raceEnabled) && !*updateDigests && !digestShortProfiles[p.Name] {
			continue
		}
		src := p.Build().String()
		for _, mode := range digestModes {
			key := p.Name + "/" + mode.String()
			r, err := AnalyzeIR(src, Options{Mode: mode})
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			d, err := reportDigest(r.Report())
			if err != nil {
				t.Fatal(err)
			}
			got[key] = d
			if !*updateDigests && d != want[key] {
				t.Errorf("%s: report digest %.12s, fixture has %.12s", key, d, want[key])
			}
		}
	}
	if *updateDigests {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.FromSlash(digestFixture), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
