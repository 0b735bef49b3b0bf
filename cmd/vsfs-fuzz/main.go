// Command vsfs-fuzz drives the differential-testing oracle over random
// workload programs and the named benchmark profiles, looking for any
// divergence between the backends — Andersen, SFS, VSFS, and the
// CFG-free flow-sensitive solver, whose results must bracket as
// sfs ⊆ cfgfree ⊆ andersen pointwise:
//
//	vsfs-fuzz -seeds 500                 check 500 random programs
//	vsfs-fuzz -start 1000 -seeds 500     a different window of seeds
//	vsfs-fuzz -profile all               check all 15 named profiles
//	vsfs-fuzz -mode server -seeds 20     daemon identity
//	vsfs-fuzz -mode all -seeds 100       solver battery and daemon checks
//	vsfs-fuzz -faults -seeds 50          fault-injection battery per program
//	vsfs-fuzz -free 0                    generate programs without free()
//	vsfs-fuzz -corpus testdata/checks    replay mini-C corpus programs
//	vsfs-fuzz -minimize -out regressions minimize failures into a corpus
//	vsfs-fuzz -skip-resolve              skip the re-solve determinism check
//
// With -faults each program is additionally run through the resource-
// governance battery (internal/oracle CheckDegradation, CheckFaults):
// deterministic panics in every pipeline phase and seeded budget
// blowouts, asserting the process never dies, panics surface as typed
// phase errors, and an over-budget run degrades down the ladder to
// exactly the standalone CFG-free result (or, if that rung also
// breaches, the standalone Andersen result) — never an unsound
// partial one.
//
// Every failing program is reported with its violations; with -minimize
// it is also delta-debugged to a minimal reproducer and written to the
// -out directory as a .ir file, ready to be committed to
// internal/oracle/testdata/regressions/ where `go test` replays the
// corpus forever. Exit status is 0 when every check passed, 1 on any
// violation, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"vsfs/internal/ir"
	"vsfs/internal/irparse"
	"vsfs/internal/lang"
	"vsfs/internal/oracle"
	"vsfs/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type fuzzConfig struct {
	mode       string
	faults     bool
	minimize   bool
	outDir     string
	opts       oracle.Options
	stdout     io.Writer
	stderr     io.Writer
	violations int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vsfs-fuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seeds := fs.Int64("seeds", 100, "number of random seeds to check")
	start := fs.Int64("start", 0, "first seed of the window")
	mode := fs.String("mode", "diff", "what to check: diff (solver battery), server (daemon identity), or all")
	profile := fs.String("profile", "", "check a named benchmark profile instead of random seeds (or \"all\")")
	faults := fs.Bool("faults", false, "also run the fault-injection battery (panic isolation, budget degradation) on every program")
	minimize := fs.Bool("minimize", false, "delta-debug each failure to a minimal reproducer")
	outDir := fs.String("out", "regressions", "directory minimized reproducers are written to")
	skipResolve := fs.Bool("skip-resolve", false, "skip the re-solve determinism check (the most expensive invariant)")
	maxWitnesses := fs.Int("max-witnesses", oracle.DefaultMaxWitnesses, "points-to facts replayed through the witness search per program (-1 = all)")
	freeProb := fs.Float64("free", 0.2, "probability of a free() per generated instruction slot, exercising the deallocation checkers")
	corpus := fs.String("corpus", "", "also replay every .c program in this directory through the solver battery")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch *mode {
	case "diff", "server", "all":
	default:
		fmt.Fprintf(stderr, "vsfs-fuzz: unknown -mode %q (want diff, server, or all)\n", *mode)
		return 2
	}

	fc := &fuzzConfig{
		mode:     *mode,
		faults:   *faults,
		minimize: *minimize,
		outDir:   *outDir,
		opts:     oracle.Options{SkipResolve: *skipResolve, MaxWitnesses: *maxWitnesses},
		stdout:   stdout,
		stderr:   stderr,
	}

	if *corpus != "" {
		n, err := fc.checkCorpus(*corpus)
		if err != nil {
			fmt.Fprintf(stderr, "vsfs-fuzz: %v\n", err)
			return 2
		}
		if *seeds == 0 && *profile == "" {
			return fc.verdict(n)
		}
	}

	if *profile != "" {
		profiles := workload.Profiles()
		if *profile != "all" {
			p := workload.ProfileByName(*profile)
			if p == nil {
				fmt.Fprintf(stderr, "vsfs-fuzz: unknown profile %q; known:", *profile)
				for _, q := range profiles {
					fmt.Fprintf(stderr, " %s", q.Name)
				}
				fmt.Fprintln(stderr)
				return 2
			}
			profiles = []workload.Profile{*p}
		}
		for i, p := range profiles {
			fc.checkOne(p.Name, p.Build(), int64(i))
		}
		return fc.verdict(len(profiles))
	}

	cfg := workload.DefaultRandomConfig()
	cfg.FreeProb = *freeProb
	for seed := *start; seed < *start+*seeds; seed++ {
		name := fmt.Sprintf("seed %d", seed)
		fc.checkOne(name, workload.Random(seed, cfg), seed)
	}
	return fc.verdict(int(*seeds))
}

// checkCorpus compiles every mini-C program in dir and runs the solver
// battery (including the checker-level invariants) on it. The corpus
// programs are written to exercise specific checkers, so this pins the
// SFS/VSFS/Andersen relationships on curated, human-meaningful inputs
// alongside the random sweep.
func (fc *fuzzConfig) checkCorpus(dir string) (int, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.c"))
	if err != nil || len(files) == 0 {
		return 0, fmt.Errorf("no .c programs in %s", dir)
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			return 0, err
		}
		prog, err := lang.Compile(string(src))
		if err != nil {
			return 0, fmt.Errorf("%s: %v", path, err)
		}
		if vs := oracle.CheckProgram(prog, fc.opts); len(vs) > 0 {
			fc.violations += len(vs)
			for _, v := range vs {
				fmt.Fprintf(fc.stdout, "FAIL %s: %s\n", path, v)
			}
		}
	}
	return len(files), nil
}

// checkOne runs the configured checks on one program and records any
// violations, minimizing and saving a reproducer when asked to. The
// fault battery re-parses the program's textual form per run because
// the pipeline finalizes (renumbers) the program it analyses.
func (fc *fuzzConfig) checkOne(name string, prog *ir.Program, seed int64) {
	var src string
	if fc.faults {
		src = prog.String()
	}
	if fc.mode == "diff" || fc.mode == "all" {
		if vs := oracle.CheckProgram(prog, fc.opts); len(vs) > 0 {
			fc.report(name, prog, vs)
		}
	}
	if fc.mode == "server" || fc.mode == "all" {
		if vs := oracle.CheckServerIdentity(prog); len(vs) > 0 {
			fc.violations += len(vs)
			for _, v := range vs {
				fmt.Fprintf(fc.stdout, "FAIL %s: %s\n", name, v)
			}
		}
	}
	if fc.faults {
		vs := oracle.CheckDegradation(src, fc.opts)
		vs = append(vs, oracle.CheckFaults(src, seed, fc.opts)...)
		if len(vs) > 0 {
			fc.violations += len(vs)
			for _, v := range vs {
				fmt.Fprintf(fc.stdout, "FAIL %s: %s\n", name, v)
			}
		}
	}
}

func (fc *fuzzConfig) report(name string, prog *ir.Program, vs []oracle.Violation) {
	fc.violations += len(vs)
	for _, v := range vs {
		fmt.Fprintf(fc.stdout, "FAIL %s: %s\n", name, v)
	}
	if !fc.minimize {
		return
	}
	invariant := vs[0].Invariant
	fmt.Fprintf(fc.stderr, "minimizing %s against %s...\n", name, invariant)
	min := oracle.Minimize(prog.String(), func(cand *ir.Program) bool {
		for _, v := range oracle.CheckProgram(cand, fc.opts) {
			if v.Invariant == invariant {
				return true
			}
		}
		return false
	})
	file := filepath.Join(fc.outDir, fmt.Sprintf("%s-%s.ir",
		strings.ReplaceAll(name, " ", ""), invariant))
	if err := os.MkdirAll(fc.outDir, 0o755); err != nil {
		fmt.Fprintf(fc.stderr, "vsfs-fuzz: %v\n", err)
		return
	}
	header := fmt.Sprintf("# Minimized by vsfs-fuzz from %s; pinned invariant: %s.\n", name, invariant)
	if err := os.WriteFile(file, []byte(header+min), 0o644); err != nil {
		fmt.Fprintf(fc.stderr, "vsfs-fuzz: %v\n", err)
		return
	}
	fmt.Fprintf(fc.stdout, "wrote %s (%d instructions)\n", file, minSize(min))
}

func minSize(src string) int {
	prog, err := irparse.Parse(src)
	if err != nil {
		return -1
	}
	return oracle.CountInstrs(prog)
}

func (fc *fuzzConfig) verdict(programs int) int {
	if fc.violations > 0 {
		fmt.Fprintf(fc.stdout, "vsfs-fuzz: %d violation(s) across %d program(s)\n", fc.violations, programs)
		return 1
	}
	fmt.Fprintf(fc.stdout, "vsfs-fuzz: %d program(s), no violations\n", programs)
	return 0
}
