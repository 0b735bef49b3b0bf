package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	"vsfs"
)

// goldenFile is where the per-program digests live, relative to the
// repository root.
const goldenFile = "benchmark/golden/golden.json"

// goldens maps a program name to the digest of its correct report.
type goldens map[string]string

// digest hashes the facts a report states: every function's points-to
// sets and callees, the findings and the shape. It leaves out stats
// (solver effort, which differs between SFS and VSFS), mode, and each
// finding's file (the CLI stamps the input path there), and strips the
// seed's name tag, so one digest holds for every seed and both solvers.
func digest(rep vsfs.Report, seed int64) (string, error) {
	findings := make([]vsfs.Finding, len(rep.Findings))
	for i, f := range rep.Findings {
		f.File = ""
		findings[i] = f
	}
	b, err := json.Marshal(struct {
		Functions []vsfs.FuncReport `json:"functions"`
		Findings  []vsfs.Finding    `json:"findings"`
		Shape     vsfs.Shape        `json:"shape"`
	}{rep.Functions, findings, rep.Shape})
	if err != nil {
		return "", err
	}
	if t := tag(seed); t != "" {
		b = []byte(strings.ReplaceAll(string(b), t, ""))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

func loadGoldens(root string) (goldens, error) {
	data, err := os.ReadFile(filepath.Join(root, goldenFile))
	if err != nil {
		return nil, fmt.Errorf("reading goldens: %w", err)
	}
	var f struct {
		Programs goldens `json:"programs"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", goldenFile, err)
	}
	return f.Programs, nil
}

// verifier checks analysis outputs against the goldens. Repeated
// requests for one program return byte-identical output, so each
// distinct output is decoded and digested once and later copies are
// matched by their raw hash. Safe for concurrent use.
type verifier struct {
	golden goldens
	seed   int64

	mu   sync.Mutex
	seen map[[32]byte]string // raw output hash → program it matched
}

func newVerifier(g goldens, seed int64) *verifier {
	return &verifier{golden: g, seed: seed, seen: map[[32]byte]string{}}
}

// check verifies raw, which is a report (CLI stdout) or, when wrapped is
// set, a POST /analyze response holding one under "report".
func (v *verifier) check(name string, raw []byte, wrapped bool) error {
	h := sha256.Sum256(raw)
	v.mu.Lock()
	ok := v.seen[h] == name
	v.mu.Unlock()
	if ok {
		return nil
	}
	var rep vsfs.Report
	if wrapped {
		var resp struct {
			Report vsfs.Report `json:"report"`
		}
		if err := json.Unmarshal(raw, &resp); err != nil {
			return fmt.Errorf("%s: decoding response: %w", name, err)
		}
		rep = resp.Report
	} else if err := json.Unmarshal(raw, &rep); err != nil {
		return fmt.Errorf("%s: decoding report: %w", name, err)
	}
	if err := v.checkReport(name, rep); err != nil {
		return err
	}
	v.mu.Lock()
	v.seen[h] = name
	v.mu.Unlock()
	return nil
}

// checkReport verifies an in-process report.
func (v *verifier) checkReport(name string, rep vsfs.Report) error {
	want, ok := v.golden[name]
	if !ok {
		return fmt.Errorf("%s: no golden digest (regenerate with -golden)", name)
	}
	got, err := digest(rep, v.seed)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("%s: report digest %.12s differs from golden %.12s", name, got, want)
	}
	return nil
}

// goldenPrograms lists every program some workload requests.
func goldenPrograms() []string {
	names := map[string]bool{"warmup": true}
	for _, s := range specs {
		for _, p := range s.programs {
			names[p] = true
		}
	}
	for j := 0; j < servePoolSize; j++ {
		names[servePoolName(j)] = true
	}
	out := make([]string, 0, len(names))
	for n := range names {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// writeGoldens recomputes every program's digest and writes the golden
// file. A digest is accepted only when SFS and VSFS agree on it for the
// Table II naming (seed 1) and VSFS reproduces it under seed 2's
// renaming; otherwise nothing is written.
func writeGoldens(root string, log io.Writer) error {
	out := goldens{}
	for _, name := range goldenPrograms() {
		var digests [3]string
		for i, run := range []struct {
			seed int64
			mode vsfs.Mode
		}{{1, vsfs.VSFS}, {1, vsfs.SFS}, {2, vsfs.VSFS}} {
			p, err := generate(name, run.seed)
			if err != nil {
				return err
			}
			r, err := vsfs.AnalyzeIR(p.src, vsfs.Options{Mode: run.mode})
			if err != nil {
				return fmt.Errorf("%s (%s, seed %d): %w", name, run.mode, run.seed, err)
			}
			if digests[i], err = digest(r.Report(), run.seed); err != nil {
				return err
			}
			runtime.GC()
		}
		if digests[0] != digests[1] {
			return fmt.Errorf("%s: SFS and VSFS reports differ; refusing to write goldens", name)
		}
		if digests[0] != digests[2] {
			return fmt.Errorf("%s: report changes under seed 2's renaming; refusing to write goldens", name)
		}
		out[name] = digests[0]
		fmt.Fprintf(log, "golden %-16s %.16s (SFS ≡ VSFS)\n", name, digests[0])
	}
	data, err := json.MarshalIndent(struct {
		Note     string  `json:"note"`
		Programs goldens `json:"programs"`
	}{
		Note:     "sha256 of each program's report functions, findings (file removed) and shape; SFS and VSFS agreed on every one. Regenerate with: bash benchmark/run.sh -golden",
		Programs: out,
	}, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(root, goldenFile)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
