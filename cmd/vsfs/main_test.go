package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"vsfs"
	"vsfs/internal/andersen"
	"vsfs/internal/guard"
	"vsfs/internal/ir"
	"vsfs/internal/irparse"
	"vsfs/internal/lang"
	"vsfs/internal/memssa"
	"vsfs/internal/svfg"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const okC = `
int main() {
  int a;
  int *p;
  p = &a;
  int *q;
  q = p;
  return 0;
}
`

const buggyC = `
int *g;
int main() {
  int a;
  g = &a;
  return 0;
}
`

const okIR = `
func main() {
entry:
  p = alloc a 0
  q = copy p
  ret
}
`

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb strings.Builder
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestRunBasicC(t *testing.T) {
	path := writeTemp(t, "p.c", okC)
	code, out, _ := runCLI(t, path)
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out, "func main:") || !strings.Contains(out, "main.a") {
		t.Errorf("dump missing content:\n%s", out)
	}
}

func TestRunModesAndStats(t *testing.T) {
	path := writeTemp(t, "p.c", okC)
	for _, mode := range []string{"vsfs", "sfs", "cfgfree", "andersen"} {
		code, out, _ := runCLI(t, "-mode", mode, "-stats", path)
		if code != 0 {
			t.Fatalf("mode %s exit = %d", mode, code)
		}
		if !strings.Contains(out, "stats: mode="+mode) {
			t.Errorf("mode %s missing stats header:\n%s", mode, out)
		}
	}
}

// TestRunModeMatrixJSON pins the full backend matrix through the CLI:
// every selectable mode (and the cfgfree spelling aliases) parses,
// solves the same file with exit 0, and stamps its name into the
// machine-readable report.
func TestRunModeMatrixJSON(t *testing.T) {
	path := writeTemp(t, "p.c", okC)
	for spelling, canonical := range map[string]string{
		"vsfs":     "vsfs",
		"sfs":      "sfs",
		"cfgfree":  "cfgfree",
		"cfg-free": "cfgfree",
		"cf":       "cfgfree",
		"andersen": "andersen",
		"ander":    "andersen",
	} {
		code, out, errb := runCLI(t, "-mode", spelling, "-json", path)
		if code != exitOK {
			t.Fatalf("-mode %s exit = %d (stderr %q)", spelling, code, errb)
		}
		if !strings.Contains(out, `"mode": "`+canonical+`"`) {
			t.Errorf("-mode %s report missing mode %q:\n%s", spelling, canonical, out[:min(len(out), 400)])
		}
		if strings.Contains(out, `"degraded": true`) {
			t.Errorf("-mode %s unexpectedly degraded", spelling)
		}
	}
}

func TestRunIRFile(t *testing.T) {
	path := writeTemp(t, "p.vir", okIR)
	code, out, _ := runCLI(t, "-callgraph", path)
	if code != 0 || !strings.Contains(out, "call graph:") {
		t.Errorf("exit = %d out:\n%s", code, out)
	}
}

func TestRunCompare(t *testing.T) {
	path := writeTemp(t, "p.c", okC)
	code, out, _ := runCLI(t, "-compare", path)
	if code != 0 || !strings.Contains(out, "SFS ≡ VSFS") {
		t.Errorf("exit = %d out:\n%s", code, out)
	}
}

func TestRunDumpIRAndDot(t *testing.T) {
	path := writeTemp(t, "p.c", okC)
	code, out, _ := runCLI(t, "-dump-ir", path)
	if code != 0 || !strings.Contains(out, "func main()") {
		t.Errorf("dump-ir: exit = %d out:\n%s", code, out)
	}
	code, out, _ = runCLI(t, "-dot", path)
	if code != 0 || !strings.Contains(out, "digraph svfg") {
		t.Errorf("dot: exit = %d out:\n%s", code, out)
	}
	irPath := writeTemp(t, "p.vir", okIR)
	code, out, _ = runCLI(t, "-dump-ir", irPath)
	if code != 0 || !strings.Contains(out, "p = alloc a 0") {
		t.Errorf("dump-ir .vir: exit = %d out:\n%s", code, out)
	}
	code, out, _ = runCLI(t, "-dot", irPath)
	if code != 0 || !strings.Contains(out, "digraph svfg") {
		t.Errorf("dot .vir: exit = %d out:\n%s", code, out)
	}
}

func TestRunCheckFindsBugs(t *testing.T) {
	clean := writeTemp(t, "ok.c", okC)
	code, out, _ := runCLI(t, "-check", clean)
	if code != 0 || !strings.Contains(out, "0 finding(s)") {
		t.Errorf("clean check: exit = %d out:\n%s", code, out)
	}
	buggy := writeTemp(t, "bug.c", buggyC)
	code, out, _ = runCLI(t, "-check", buggy)
	if code != exitFindings || !strings.Contains(out, "stack-escape") {
		t.Errorf("buggy check: exit = %d out:\n%s", code, out)
	}
}

func TestRunErrors(t *testing.T) {
	if code, _, _ := runCLI(t); code != 2 {
		t.Error("no args should exit 2")
	}
	if code, _, stderr := runCLI(t, "/no/such/file.c"); code != 1 || stderr == "" {
		t.Error("missing file should exit 1 with a message")
	}
	bad := writeTemp(t, "bad.c", "int main() { return x; }")
	if code, _, stderr := runCLI(t, bad); code != 1 || !strings.Contains(stderr, "undefined name") {
		t.Errorf("bad source: exit = %d stderr = %q", code, stderr)
	}
	p := writeTemp(t, "p.c", okC)
	if code, _, _ := runCLI(t, "-mode", "nope", p); code != 1 {
		t.Error("bad mode should exit 1")
	}
	if code, _, _ := runCLI(t, "-badflag", p); code != 2 {
		t.Error("bad flag should exit 2")
	}
}

func TestRunWhy(t *testing.T) {
	path := writeTemp(t, "p.c", okC)
	code, out, _ := runCLI(t, "-why", "p", path)
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	want := "why may p.4 point to main.a:\n" +
		"   1. [allocation] ℓ2 a.addr.1 = alloc main.a\n" +
		"   2. [via a.addr.1] ℓ5 *p.addr.2 = a.addr.1\n" +
		"   3. [in main.p] ℓ6 p.4 = *p.addr.2\n"
	if out != want {
		t.Errorf("witness output:\n%s\nwant:\n%s", out, want)
	}
	code, out, _ = runCLI(t, "-why", "nosuchvar", path)
	if code != 0 || !strings.Contains(out, "no points-to facts") {
		t.Errorf("missing-var output: %d %q", code, out)
	}
}

// twoPC has a local p in both main and f, each holding a different
// global's address: the function qualifier of -why decides which one is
// explained.
const twoPC = `
int a;
int b;
int *ga;
int *gb;
int f() {
  int *p;
  p = &b;
  gb = p;
  return 0;
}
int main() {
  int *p;
  p = &a;
  ga = p;
  f();
  return 0;
}
`

func TestRunWhyFunctionQualifier(t *testing.T) {
	path := writeTemp(t, "two.c", twoPC)
	mainWitness := "why may p.4 point to a.obj:\n" +
		"   1. [allocation] ℓ2 a = alloc a.obj\n" +
		"   2. [via a] ℓ15 *p.addr.3 = a\n" +
		"   3. [in main.p] ℓ16 p.4 = *p.addr.3\n"
	fWitness := "why may p.2 point to b.obj:\n" +
		"   1. [allocation] ℓ3 b = alloc b.obj\n" +
		"   2. [via b] ℓ9 *p.addr.1 = b\n" +
		"   3. [in f.p] ℓ10 p.2 = *p.addr.1\n"
	for _, tc := range []struct{ why, want string }{
		{"main.p", mainWitness},
		{"f.p", fWitness},
		{"p", fWitness + mainWitness},
		// "p" is not a function, so the dotted IR temp matches exactly.
		{"p.4", mainWitness},
	} {
		code, out, errb := runCLI(t, "-why", tc.why, path)
		if code != exitOK || out != tc.want {
			t.Errorf("-why %s: exit = %d (stderr %q), out:\n%s\nwant:\n%s", tc.why, code, errb, out, tc.want)
		}
	}
}

// TestRunWhyBudgetDegrades: -why runs under the same budget ladder as
// every other path, so a breach after Andersen degrades (exit 3) rather
// than failing the run.
func TestRunWhyBudgetDegrades(t *testing.T) {
	src := budgetIR(600)
	path := writeTemp(t, "big.vir", src)
	aSteps, _ := auxSpend(t, src)
	code, _, errb := runCLI(t, "-why", "p", "-max-steps", strconv.FormatInt(aSteps, 10), path)
	if code != exitDegraded || !strings.Contains(errb, "degraded") {
		t.Fatalf("-why -max-steps %d: exit = %d, want %d (stderr %q)", aSteps, code, exitDegraded, errb)
	}
}

// TestRunDotMatchesPipeline: -dot prints exactly the pristine SVFG the
// staged pipeline builds, for both input languages.
func TestRunDotMatchesPipeline(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		build     func(string) (*ir.Program, error)
	}{
		{"p.c", buggyC, lang.Compile},
		{"p.vir", okIR, irparse.Parse},
	} {
		prog, err := tc.build(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		aux := andersen.Analyze(prog)
		var want strings.Builder
		if err := svfg.Build(prog, aux, memssa.Build(prog, aux)).WriteDot(&want); err != nil {
			t.Fatal(err)
		}
		code, out, errb := runCLI(t, "-dot", writeTemp(t, tc.name, tc.src))
		if code != exitOK || out != want.String() {
			t.Errorf("-dot %s: exit = %d (stderr %q), out:\n%s\nwant:\n%s", tc.name, code, errb, out, want.String())
		}
	}
}

func TestRunJSONDeterministic(t *testing.T) {
	path := writeTemp(t, "p.c", buggyC)
	code1, out1, _ := runCLI(t, "-json", path)
	code2, out2, _ := runCLI(t, "-json", path)
	if code1 != 0 || code2 != 0 {
		t.Fatalf("exit = %d, %d", code1, code2)
	}
	if out1 != out2 {
		t.Fatalf("-json output is not deterministic:\n%s\n---\n%s", out1, out2)
	}
	for _, want := range []string{`"mode": "vsfs"`, `"functions"`, `"findings"`, `"stats"`} {
		if !strings.Contains(out1, want) {
			t.Errorf("-json output missing %s:\n%s", want, out1)
		}
	}
}

func TestRunTimeout(t *testing.T) {
	path := writeTemp(t, "p.c", okC)
	code, _, errb := runCLI(t, "-timeout", "1ns", path)
	if code != exitTimeout {
		t.Fatalf("exit = %d, want %d", code, exitTimeout)
	}
	if !strings.Contains(errb, "timed out") {
		t.Fatalf("stderr missing clean timeout message: %q", errb)
	}
	// A generous limit must not trip.
	if code, _, _ := runCLI(t, "-timeout", "1m", path); code != 0 {
		t.Fatalf("exit with ample timeout = %d, want 0", code)
	}
}

// budgetIR generates a program big enough that the pipeline's budget
// checkpoints actually fire: n heap objects all stored to and loaded
// through one pointer, giving every phase real work.
func budgetIR(n int) string {
	var b strings.Builder
	b.WriteString("func main() {\nentry:\n  p = alloc h 0\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  x%d = alloc o%d 0\n  store p, x%d\n  y%d = load p\n", i, i, i, i)
	}
	b.WriteString("  ret\n}\n")
	return b.String()
}

// auxSpend returns the steps and bytes Andersen's analysis alone spends
// on the IR program src, measured under an instrumented budget.
func auxSpend(t *testing.T, src string) (steps, bytes int64) {
	t.Helper()
	prog, err := irparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	aux := guard.NewBudget(1<<40, 1<<40, 0)
	if _, err := andersen.AnalyzeContext(guard.WithBudget(context.Background(), aux), prog); err != nil {
		t.Fatal(err)
	}
	return aux.StepsUsed(), aux.BytesUsed()
}

// TestRunBudgetDegrades drives -max-steps and -max-mem end-to-end. The
// limits are computed adaptively: run Andersen alone and the full
// pipeline under instrumented budgets, then pick a limit past what
// Andersen needs but short of what the flow-sensitive phases need, so
// the breach deterministically lands after the fallback result exists.
func TestRunBudgetDegrades(t *testing.T) {
	src := budgetIR(600)
	path := writeTemp(t, "big.vir", src)

	aSteps, aBytes := auxSpend(t, src)

	full := guard.NewBudget(1<<40, 1<<40, 0)
	if _, err := vsfs.AnalyzeContext(guard.WithBudget(context.Background(), full), src,
		vsfs.Options{Mode: vsfs.VSFS, Input: vsfs.InputIR}); err != nil {
		t.Fatal(err)
	}
	fSteps, fBytes := full.StepsUsed(), full.BytesUsed()
	if fSteps <= aSteps || fBytes <= aBytes+4096 {
		t.Fatalf("generator too small to separate phases: steps %d→%d bytes %d→%d",
			aSteps, fSteps, aBytes, fBytes)
	}

	// Steps: at exactly Andersen's usage the auxiliary phase completes
	// (breach is strict >) and the first flow-sensitive checkpoint trips.
	// The ladder retries with the CFG-free backend under a fresh budget
	// of the same size, which suffices here — the run degrades to the
	// middle rung, not the flow-insensitive floor.
	code, out, errb := runCLI(t, "-json", "-max-steps", strconv.FormatInt(aSteps, 10), path)
	if code != exitDegraded {
		t.Fatalf("-max-steps %d exit = %d, want %d (stderr %q)", aSteps, code, exitDegraded, errb)
	}
	if !strings.Contains(errb, "degraded") || !strings.Contains(errb, "steps budget exceeded") {
		t.Fatalf("stderr missing degradation notice: %q", errb)
	}
	for _, want := range []string{`"degraded": true`, `"mode": "cfgfree"`} {
		if !strings.Contains(out, want) {
			t.Errorf("-json degraded output missing %s", want)
		}
	}

	// Memory: give the flow-sensitive phases a little headroom over
	// Andersen so the auxiliary phase never trips, then breach on growth.
	memLimit := aBytes + (fBytes-aBytes)/8
	code, out, errb = runCLI(t, "-json", "-max-mem", strconv.FormatInt(memLimit, 10), path)
	if code != exitDegraded {
		t.Fatalf("-max-mem %d exit = %d, want %d (stderr %q)", memLimit, code, exitDegraded, errb)
	}
	if !strings.Contains(errb, "mem budget exceeded") {
		t.Fatalf("stderr missing mem degradation notice: %q", errb)
	}
	if !strings.Contains(out, `"degraded": true`) {
		t.Error("-json mem-degraded output not marked degraded")
	}

	// Generous budgets must not trip: full-precision result, exit 0.
	code, out, _ = runCLI(t, "-max-steps", strconv.FormatInt(1<<40, 10), "-max-mem", strconv.FormatInt(1<<40, 10), "-stats", path)
	if code != exitOK || !strings.Contains(out, "stats: mode=vsfs") {
		t.Fatalf("ample budgets: exit = %d out tail %q", code, out[max(0, len(out)-200):])
	}
}

const uafC = `int main() {
  int *p;
  p = malloc();
  *p = 1;
  free(p);
  *p = 2;
  return 0;
}
`

func TestRunCheckUseAfterFreePositions(t *testing.T) {
	path := writeTemp(t, "uaf.c", uafC)
	code, out, _ := runCLI(t, "-check", path)
	if code != exitFindings {
		t.Fatalf("exit = %d, want %d\n%s", code, exitFindings, out)
	}
	want := path + ":6:3: error: "
	if !strings.Contains(out, want) || !strings.Contains(out, "[use-after-free]") {
		t.Errorf("missing positioned use-after-free (%q):\n%s", want, out)
	}
	// The facts must come from the flow-sensitive solver: the same file
	// has no finding at the pre-free write on line 4.
	if strings.Contains(out, ":4:") {
		t.Errorf("pre-free write flagged:\n%s", out)
	}
}

func TestRunCheckSARIF(t *testing.T) {
	path := writeTemp(t, "uaf.c", uafC)
	code, out, _ := runCLI(t, "-check", "-sarif", path)
	if code != exitFindings {
		t.Fatalf("exit = %d, want %d", code, exitFindings)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("SARIF output is not JSON: %v", err)
	}
	if doc["version"] != "2.1.0" {
		t.Errorf("version = %v", doc["version"])
	}
	runs := doc["runs"].([]any)
	results := runs[0].(map[string]any)["results"].([]any)
	foundUAF := false
	for _, ri := range results {
		res := ri.(map[string]any)
		if res["ruleId"] != "use-after-free" {
			continue
		}
		foundUAF = true
		loc := res["locations"].([]any)[0].(map[string]any)
		phys := loc["physicalLocation"].(map[string]any)
		region := phys["region"].(map[string]any)
		if region["startLine"].(float64) != 6 || region["startColumn"].(float64) != 3 {
			t.Errorf("region = %v, want 6:3", region)
		}
		if phys["artifactLocation"].(map[string]any)["uri"] != path {
			t.Errorf("uri = %v", phys)
		}
	}
	if !foundUAF {
		t.Errorf("no use-after-free result in SARIF:\n%s", out)
	}
}

func TestRunCheckSuppressionAndBaseline(t *testing.T) {
	suppressed := `int main() {
  int *p;
  p = malloc();
  free(p);
  *p = 2; // vsfs:ignore(use-after-free)
  return 0;
}
`
	path := writeTemp(t, "supp.c", suppressed)
	code, out, _ := runCLI(t, "-check", path)
	if code != exitOK || !strings.Contains(out, "0 finding(s), 1 suppressed") {
		t.Errorf("suppression: exit = %d out:\n%s", code, out)
	}

	uaf := writeTemp(t, "uaf.c", uafC)
	base := filepath.Join(t.TempDir(), "baseline.json")
	code, _, _ = runCLI(t, "-check", "-write-baseline", base, uaf)
	if code != exitOK {
		t.Fatalf("write-baseline exit = %d", code)
	}
	code, out, _ = runCLI(t, "-check", "-baseline", base, uaf)
	if code != exitOK || !strings.Contains(out, "baselined") {
		t.Errorf("baselined run: exit = %d out:\n%s", code, out)
	}
}

func TestRunCheckSeverityOverride(t *testing.T) {
	path := writeTemp(t, "uaf.c", uafC)
	code, out, _ := runCLI(t, "-check", "-severity", "use-after-free=note", path)
	if code != exitFindings || !strings.Contains(out, ": note: ") {
		t.Errorf("exit = %d out:\n%s", code, out)
	}
	if code, _, _ := runCLI(t, "-check", "-severity", "use-after-free=nope", path); code != exitUsage {
		t.Error("bad severity level should exit 2")
	}
}

func TestRunCheckTaint(t *testing.T) {
	taint := `int *fetch() {
  int *s;
  s = malloc();
  return s;
}
void scrub(int *d) { return; }
void ship(int *d) { return; }
int main() {
  int *x;
  x = fetch();
  ship(x);
  return 0;
}
`
	path := writeTemp(t, "taint.c", taint)
	code, out, _ := runCLI(t, "-check", "-taint-source", "fetch", "-taint-sink", "ship", path)
	if code != exitFindings || !strings.Contains(out, "[leak]") {
		t.Errorf("taint: exit = %d out:\n%s", code, out)
	}
	code, out, _ = runCLI(t, "-check", "-taint-source", "fetch", "-taint-sink", "scrub",
		"-taint-sanitizers", "ship", path)
	if code != exitOK {
		t.Errorf("sanitized-off sink: exit = %d out:\n%s", code, out)
	}
}

func TestRunCheckRespectsMode(t *testing.T) {
	// Flow-insensitively the post-free store is indistinguishable; the
	// Andersen run must report at least as many use-after-free findings
	// as VSFS (here: the pre-free write too).
	path := writeTemp(t, "uaf.c", uafC)
	_, vout, _ := runCLI(t, "-check", path)
	_, aout, _ := runCLI(t, "-check", "-mode", "andersen", path)
	if strings.Count(aout, "[use-after-free]") < strings.Count(vout, "[use-after-free]") {
		t.Errorf("andersen reported fewer UAFs than vsfs:\n--- vsfs ---\n%s--- andersen ---\n%s", vout, aout)
	}
}
