// Command benchmark measures vsfs end to end, as a user of the vsfs CLI
// or of vsfs-serve's POST /analyze pays for it, and layer by layer in a
// separate traced run. Run it from the repository root:
//
//	bash benchmark/run.sh -workload large -seed 1            end-to-end metrics
//	bash benchmark/run.sh -workload large -seed 1 -trace 1   per-layer metrics
//	bash benchmark/run.sh -workload all -sets 2 -out r.json
//	bash benchmark/run.sh -compare old.json new.json
//	bash benchmark/run.sh -golden                            regenerate goldens
//
// It builds cmd/vsfs and cmd/vsfs-serve before any clock starts, checks
// every output against SFS-validated goldens, and prints one JSON object
// as the last line of standard output. BENCHMARK.json at the repository
// root names the workloads and metrics, with their units and bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// config is BENCHMARK.json, the single source of workload names, metric
// units and regression bounds.
type config struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadConfig(root string) (config, error) {
	var c config
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(data, &c); err != nil {
		return c, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	for _, w := range c.Workloads {
		if _, ok := specByName(w.Name); !ok {
			return c, fmt.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	return c, nil
}

// metrics returns the metric list a run reports: end-to-end metrics, or
// per-layer ones for a traced run.
func (c config) metrics(trace bool) []metricSpec {
	if trace {
		return c.PerLayer
	}
	return c.EndToEnd
}

func (c config) why(workload string) string {
	for _, w := range c.Workloads {
		if w.Name == workload {
			return w.Why
		}
	}
	return ""
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// row is one program's line in a run's output.
type row struct {
	Program  string             `json:"program"`
	Requests int                `json:"requests"`
	Values   map[string]float64 `json:"values"`
}

// result is one run: one workload at one seed.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Set       int               `json:"set"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Extra holds measured values that hold only on some workloads
	// (sfs.*, paper.*, server.*) or restate others (failed_frac); they
	// are printed and recorded but are not BENCHMARK.json metrics.
	Extra map[string]metric `json:"extra,omitempty"`
	// Samples states how many measurements back each metric.
	Samples map[string]int `json:"samples"`
	Rows    []row          `json:"programs"`
}

func newResult(workload string, seed int64, trace bool) *result {
	return &result{
		Workload: workload, Seed: seed, Trace: trace, Correct: true,
		Metrics: map[string]metric{}, Extra: map[string]metric{}, Samples: map[string]int{},
	}
}

// maxErrors bounds how many failure messages a result keeps.
const maxErrors = 8

// fail records one failed request.
func (r *result) fail(err error) {
	r.Failed++
	r.Correct = false
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, err.Error())
	}
}

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

func (r *result) extra(name string, v float64, unit string) { r.Extra[name] = metric{v, unit} }

// summary is the object printed as the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runContext records where and how a set of runs was made.
type runContext struct {
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Commit     string   `json:"git_commit"`
	Workloads  []string `json:"workloads"`
	Seeds      []int64  `json:"seeds"`
	Sets       int      `json:"sets"`
	Seconds    float64  `json:"seconds"`
	Trace      bool     `json:"trace"`
}

// commit reads the VCS revision the go tool stamped into this binary;
// "unknown" when it was built outside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// record is what -out writes and -compare reads.
type record struct {
	Context runContext  `json:"context"`
	Runs    []*result   `json:"runs"`
	Summary []agreement `json:"summary,omitempty"`
}

// env is the built benchmark environment of one invocation.
type env struct {
	root   string
	cfg    config
	vsfs   string // built cmd/vsfs
	serve  string // built cmd/vsfs-serve
	work   string // scratch directory for generated inputs and traces
	stdout io.Writer
}

// buildDir holds everything building and running leaves behind.
const buildDir = ".bench_build"

// newEnv builds the two binaries under test.
func newEnv(root string, cfg config, stdout, stderr io.Writer) (*env, error) {
	abs, err := filepath.Abs(filepath.Join(root, buildDir))
	if err != nil {
		return nil, err
	}
	e := &env{
		root: root, cfg: cfg, stdout: stdout, work: abs,
		vsfs:  filepath.Join(abs, "bin", "vsfs"),
		serve: filepath.Join(abs, "bin", "vsfs-serve"),
	}
	for _, b := range []struct{ out, pkg string }{{e.vsfs, "./cmd/vsfs"}, {e.serve, "./cmd/vsfs-serve"}} {
		cmd := exec.Command("go", "build", "-o", b.out, b.pkg)
		cmd.Dir = root
		cmd.Stdout, cmd.Stderr = stderr, stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("building %s: %w", b.pkg, err)
		}
	}
	return e, nil
}

// runOne runs one workload at one seed.
func (e *env) runOne(s spec, seed int64, seconds float64, trace bool) (*result, error) {
	kind := "end-to-end"
	if trace {
		kind = "traced"
	}
	fmt.Fprintf(e.stdout, "== %s (seed %d, %s): %s\n", s.name, seed, kind, e.cfg.why(s.name))
	var r *result
	var err error
	switch {
	case trace:
		r, err = e.runTraced(s, seed, seconds)
	case s.serve:
		r, err = e.runServe(s, seed, seconds)
	default:
		r, err = e.runCLI(s, seed, seconds)
	}
	if err != nil {
		return nil, err
	}
	// Every run reports exactly the metrics BENCHMARK.json lists, so the
	// file and the code cannot drift apart silently.
	want := e.cfg.metrics(trace)
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s not measured", s.name, m.Name)
		}
		if got.Unit != m.Unit {
			return nil, fmt.Errorf("%s: metric %s measured in %s, BENCHMARK.json says %s", s.name, m.Name, got.Unit, m.Unit)
		}
	}
	if len(r.Metrics) != len(want) {
		return nil, fmt.Errorf("%s: %d metrics measured, BENCHMARK.json lists %d", s.name, len(r.Metrics), len(want))
	}
	if r.Attempted > 0 {
		r.extra("failed_frac", float64(r.Failed)/float64(r.Attempted), "ratio")
	}
	e.print(r)
	return r, nil
}

// print writes a run's per-program rows, metrics and failures.
func (e *env) print(r *result) {
	w := e.stdout
	if len(r.Rows) > 0 {
		cols := make([]string, 0, len(r.Rows[0].Values))
		for k := range r.Rows[0].Values {
			cols = append(cols, k)
		}
		sort.Strings(cols)
		fmt.Fprintf(w, "  %-16s %8s", "program", "requests")
		for _, c := range cols {
			fmt.Fprintf(w, " %14s", c)
		}
		fmt.Fprintln(w)
		for _, pr := range r.Rows {
			fmt.Fprintf(w, "  %-16s %8d", pr.Program, pr.Requests)
			for _, c := range cols {
				fmt.Fprintf(w, " %14.4f", pr.Values[c])
			}
			fmt.Fprintln(w)
		}
	}
	printMetrics := func(ms map[string]metric) {
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-24s %14.6g %-6s", n, ms[n].Value, ms[n].Unit)
			if c, ok := r.Samples[n]; ok {
				fmt.Fprintf(w, " (%d samples)", c)
			}
			fmt.Fprintln(w)
		}
	}
	printMetrics(r.Metrics)
	printMetrics(r.Extra)
	fmt.Fprintf(w, "  requests: %d attempted, %d failed\n", r.Attempted, r.Failed)
	for _, msg := range r.Errors {
		fmt.Fprintf(w, "  FAILED: %s\n", msg)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runsPerSet is how many runs, at consecutive seeds, each workload makes
// in every set when -sets asks for more than one: enough for the
// quartiles that decide whether the sets agree.
const runsPerSet = 10

// run is the testable entry point; it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	const root = "."
	cfg, err := loadConfig(root)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadF := fs.String("workload", "all", "workload to run: large, store-heavy, sfs, serve or all")
	seed := fs.Int64("seed", 1, "input seed (seed 1 runs the Table II programs exactly)")
	// BENCHMARK.json's command is invoked with --seconds set to its
	// run_seconds, which is also the default here.
	seconds := fs.Float64("seconds", float64(cfg.RunSeconds), "length of each run's timed phase")
	traceF := fs.Int("trace", 0, "1 = traced in-process run reporting per-layer metrics")
	sets := fs.Int("sets", 1, fmt.Sprintf("repeat the runs this many times, %d seeds per workload each time when more than once, and check the sets agree within the bounds", runsPerSet))
	out := fs.String("out", "", "write the runs, their per-program rows and their context to this JSON file")
	golden := fs.Bool("golden", false, "recompute "+goldenFile+", checking SFS and VSFS agree on every program")
	compare := fs.Bool("compare", false, "compare two -out files: -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare old.json new.json")
			return 2
		}
		return compareFiles(cfg, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *traceF < 0 || *traceF > 1 || *sets < 1 || *seconds <= 0 {
		fs.Usage()
		return 2
	}
	if *golden {
		if err := writeGoldens(root, stdout); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}

	var chosen []spec
	for _, s := range specs {
		if *workloadF == "all" || *workloadF == s.name {
			chosen = append(chosen, s)
		}
	}
	if len(chosen) == 0 {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workloadF)
		return 2
	}
	e, err := newEnv(root, cfg, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	secs := *seconds
	trace := *traceF == 1

	rec := record{Context: runContext{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Sets: *sets, Seconds: secs, Trace: trace,
	}}
	for _, s := range chosen {
		rec.Context.Workloads = append(rec.Context.Workloads, s.name)
	}
	runs := 1
	if *sets > 1 {
		runs = runsPerSet
	}
	for k := 0; k < runs; k++ {
		rec.Context.Seeds = append(rec.Context.Seeds, *seed+int64(k))
	}
	fmt.Fprintf(stdout, "benchmark: nproc=%d GOMAXPROCS=%d %s commit=%s seconds=%g\n",
		rec.Context.NumCPU, rec.Context.GOMAXPROCS, rec.Context.GoVersion, rec.Context.Commit, secs)

	for set := 1; set <= *sets; set++ {
		for _, s := range chosen {
			for _, sd := range rec.Context.Seeds {
				r, err := e.runOne(s, sd, secs, trace)
				if err != nil {
					fmt.Fprintln(stderr, "benchmark:", err)
					return 1
				}
				r.Set = set
				rec.Runs = append(rec.Runs, r)
			}
		}
	}
	if *sets > 1 {
		rec.Summary = agreements(e.cfg, rec.Runs, trace)
		printAgreements(stdout, rec.Summary)
	}
	if *out != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}

	sum := summarize(rec.Runs, len(chosen) > 1 || len(rec.Runs) > len(chosen))
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !sum.Correct || !agreed(rec.Summary) {
		return 1
	}
	return 0
}

// summarize folds runs into the final line. A single run reports its own
// metrics; several report each workload's median under
// "<workload>.<metric>".
func summarize(runs []*result, prefixed bool) summary {
	s := summary{Correct: true, Metrics: map[string]metric{}}
	vals := map[string][]float64{}
	units := map[string]string{}
	for _, r := range runs {
		s.Correct = s.Correct && r.Correct
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		for n, m := range r.Metrics {
			key := n
			if prefixed {
				key = r.Workload + "." + n
			}
			vals[key] = append(vals[key], m.Value)
			units[key] = m.Unit
		}
	}
	for k, xs := range vals {
		s.Metrics[k] = metric{median(xs), units[k]}
	}
	return s
}
