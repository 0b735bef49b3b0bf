package oracle

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vsfs/internal/ir"
	"vsfs/internal/irparse"
	"vsfs/internal/workload"
)

func reportAll(t *testing.T, label string, vs []Violation) {
	t.Helper()
	for _, v := range vs {
		t.Errorf("%s: %s", label, v)
	}
}

// TestSweepDefaultConfig runs the full battery (including the re-solve
// determinism check) over a window of random seeds. This is the unit
// slice of what cmd/vsfs-fuzz does at scale.
func TestSweepDefaultConfig(t *testing.T) {
	cfg := workload.DefaultRandomConfig()
	for seed := int64(0); seed < 30; seed++ {
		reportAll(t, fmt.Sprintf("seed %d", seed), CheckSeed(seed, cfg, Options{}))
		if t.Failed() {
			t.Fatalf("battery failed at seed %d", seed)
		}
	}
}

// TestSweepFastProfiles checks the two cheapest named benchmark
// profiles end to end; the full 15-profile sweep is cmd/vsfs-fuzz
// territory (minutes, not unit-test time).
func TestSweepFastProfiles(t *testing.T) {
	for _, p := range workload.Profiles() {
		if p.Name != "du" && p.Name != "dpkg" {
			continue
		}
		reportAll(t, p.Name, CheckProgram(p.Build(), Options{SkipResolve: true}))
	}
}

// TestRegressionCorpus replays every minimized reproducer ever
// committed under testdata/regressions/. Each file pins a divergence
// the fuzzer once found; the battery must stay clean on all of them
// forever.
func TestRegressionCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "regressions", "*.ir"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("regression corpus is empty; the replay harness is not wired up")
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			reportAll(t, filepath.Base(file), CheckSource(string(src), Options{MaxWitnesses: -1}))
		})
	}
}

// TestCorpusExercisesWitnessPatterns guards the corpus itself: the two
// witness reproducers must actually contain the shapes that broke
// ExplainPointsTo (multiple funcaddr sites for one function; a fact
// targeting a field object), or a future regeneration could silently
// neuter them.
func TestCorpusExercisesWitnessPatterns(t *testing.T) {
	read := func(name string) *ir.Program {
		src, err := os.ReadFile(filepath.Join("testdata", "regressions", name))
		if err != nil {
			t.Fatal(err)
		}
		prog, err := irparse.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return prog
	}

	prog := read("witness-multi-funcaddr.ir")
	funcAddrs := map[ir.ID]int{}
	for _, f := range prog.Funcs {
		f.ForEachInstr(func(in *ir.Instr) {
			if in.Op == ir.Alloc && prog.Value(in.Obj).ObjKind == ir.FuncObj {
				funcAddrs[in.Obj]++
			}
		})
	}
	multi := false
	for _, n := range funcAddrs {
		multi = multi || n >= 2
	}
	if !multi {
		t.Error("witness-multi-funcaddr.ir no longer has a function object with two funcaddr sites")
	}

	prog = read("witness-field-object.ir")
	b := SolveBundle(prog)
	fieldFact := false
	for id := ir.ID(1); int(id) < prog.NumValues(); id++ {
		if !prog.IsPointer(id) || prog.Instrs[b.Graph.DefSite[id]].Op != ir.Load {
			continue
		}
		b.VSFS.PointsTo(id).ForEach(func(o uint32) {
			fieldFact = fieldFact || prog.ObjValue(ir.Obj(o)).Offset > 0
		})
	}
	if !fieldFact {
		t.Error("witness-field-object.ir no longer has a load resolving to a field object")
	}
}

// TestCheckSourceReportsParseFailure keeps corpus replay loops simple:
// garbage input is a violation, not a panic or a silent pass.
func TestCheckSourceReportsParseFailure(t *testing.T) {
	vs := CheckSource("func main() {\nentry:\n  p = bogus q\n}\n", Options{})
	if len(vs) != 1 || vs[0].Invariant != "parse" {
		t.Fatalf("CheckSource on garbage = %v, want a single parse violation", vs)
	}
}

// injectPrecisionBug corrupts a solved bundle the way a broken
// versioning scheme would: the first load-defined pointer (program
// order) with a non-empty VSFS points-to set loses its smallest object.
// Result.PointsTo hands back the live set, so the drop takes effect
// inside the bundle, in every pointer and version sharing that frozen
// set. Reports whether a target existed.
func injectPrecisionBug(b *Bundle) bool {
	for _, f := range b.Prog.Funcs {
		target := ir.None
		f.ForEachInstr(func(in *ir.Instr) {
			if target == ir.None && in.Op == ir.Load && in.Def != ir.None &&
				!b.VSFS.PointsTo(in.Def).IsEmpty() {
				target = in.Def
			}
		})
		if target != ir.None {
			pts := b.VSFS.PointsTo(target)
			pts.Clear(pts.Min())
			return true
		}
	}
	return false
}

func hasViolation(vs []Violation, invariant string) bool {
	for _, v := range vs {
		if v.Invariant == invariant {
			return true
		}
	}
	return false
}

// TestInjectedPrecisionBugCaughtAndMinimized is the mutation test for
// the oracle itself: deliberately break the VSFS result of a random
// program, assert the battery notices, then delta-debug the program
// against the injected bug and assert the reproducer is tiny. If this
// test fails, the oracle has gone blind and every green fuzz run is
// meaningless.
func TestInjectedPrecisionBugCaughtAndMinimized(t *testing.T) {
	cfg := workload.RandomConfig{
		Funcs: 2, MaxParams: 2, InstrsPerFunc: 14, MaxFields: 2,
		HeapFrac: 0.5, IndirectCalls: true, Globals: 1,
		LoopFrac: 0.1, BranchFrac: 0.3, StoreFrac: 0.5,
	}
	opts := Options{SkipResolve: true}

	var seed int64 = -1
	for s := int64(0); s < 50; s++ {
		if injectPrecisionBug(SolveBundle(workload.Random(s, cfg))) {
			seed = s
			break
		}
	}
	if seed < 0 {
		t.Fatal("no seed in [0, 50) produced a load with a non-empty points-to set")
	}

	// The corrupted bundle must trip the precision half of the battery...
	b := SolveBundle(workload.Random(seed, cfg))
	injectPrecisionBug(b)
	vs := Check(b, opts)
	if !hasViolation(vs, "vsfs-eq-toplevel") {
		t.Fatalf("injected precision bug not caught: violations = %v", vs)
	}
	// ...and the clean bundle must not (the corruption is the only cause).
	if vs := Check(SolveBundle(workload.Random(seed, cfg)), opts); len(vs) != 0 {
		t.Fatalf("clean solve of seed %d has violations: %v", seed, vs)
	}

	fails := func(prog *ir.Program) bool {
		cb := SolveBundle(prog)
		if !injectPrecisionBug(cb) {
			return false
		}
		return hasViolation(Check(cb, opts), "vsfs-eq-toplevel")
	}
	src := workload.Random(seed, cfg).String()
	min := Minimize(src, fails)
	prog, err := irparse.Parse(min)
	if err != nil {
		t.Fatalf("minimized reproducer does not parse: %v\n%s", err, min)
	}
	if got, orig := CountInstrs(prog), CountInstrs(workload.Random(seed, cfg)); got > 15 {
		t.Errorf("minimized reproducer has %d instructions (from %d), want ≤ 15:\n%s", got, orig, min)
	}
	if !fails(prog) {
		t.Error("minimized reproducer no longer reproduces the injected bug")
	}
}

// TestMinimizeKeepsPassingInput pins Minimize's contract on input that
// never fails: return it unchanged instead of shrinking a healthy
// program to nothing.
func TestMinimizeKeepsPassingInput(t *testing.T) {
	src := workload.Random(7, workload.DefaultRandomConfig()).String()
	if got := Minimize(src, func(*ir.Program) bool { return false }); got != src {
		t.Error("Minimize rewrote a program that never failed the predicate")
	}
}

// TestServerIdentity runs the daemon-level half of the battery on two
// seeds: cache hits, concurrent single-flight waiters, and /query and
// /check answers from independent servers must be byte-identical to a
// cold solve.
func TestServerIdentity(t *testing.T) {
	cfg := workload.RandomConfig{
		Funcs: 2, MaxParams: 2, InstrsPerFunc: 10, MaxFields: 2,
		HeapFrac: 0.5, IndirectCalls: true, Globals: 1, StoreFrac: 0.5,
	}
	for seed := int64(0); seed < 2; seed++ {
		reportAll(t, "server seed", CheckServerIdentity(workload.Random(seed, cfg)))
	}
}

// TestCountInstrsExcludesSynthetic anchors the size metric reproducers
// are judged by.
func TestCountInstrsExcludesSynthetic(t *testing.T) {
	src := "global g1 1\nfunc main() {\nentry:\n  p = alloc a 0\n  store p, g1\n  v = load p\n  ret v\n}\n"
	prog, err := irparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := CountInstrs(prog); got != 3 {
		t.Fatalf("CountInstrs = %d, want 3 (alloc, store, load; no synthetic nodes, no global allocs)", got)
	}
}

// TestCheckerInvariantsWithFrees sweeps seeds whose programs contain
// free() so the checker-level invariants (checker-vsfs-eq-sfs,
// checker-aux-superset, checker-aux-subset) run over non-trivial
// deallocation traffic, and asserts the battery is not vacuous: at
// least one program must actually produce findings.
func TestCheckerInvariantsWithFrees(t *testing.T) {
	cfg := workload.DefaultRandomConfig()
	cfg.FreeProb = 0.3
	sawFindings := false
	for seed := int64(0); seed < 6; seed++ {
		prog := workload.Random(seed, cfg)
		b := SolveBundle(prog)
		reportAll(t, fmt.Sprintf("free seed %d", seed), Check(b, Options{SkipResolve: true}))
		for _, fs := range runCheckers(prog, b.VSFS) {
			if len(fs) > 0 {
				sawFindings = true
			}
		}
	}
	if !sawFindings {
		t.Error("no seed produced any checker finding; the invariants were tested vacuously")
	}
}

// TestCheckerInvariantAdapters pins each backend's facts on a concrete
// free-bearing program: SFS answers ConsumedSet with IN sets, VSFS with
// consume versions, Andersen with the summary.
func TestCheckerInvariantAdapters(t *testing.T) {
	src := `global g1 0
func main() {
entry:
  p = alloc h 0
  store g1, p
  free p
  q = load g1
  v = load q
  ret v
}
`
	prog, err := irparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	b := SolveBundle(prog)
	vf := runCheckers(prog, b.VSFS)
	if len(vf["use-after-free"]) == 0 {
		t.Fatalf("no use-after-free from VSFS facts: %v", vf)
	}
	sf := runCheckers(prog, b.SFS)
	if fmt.Sprint(sf) != fmt.Sprint(vf) {
		t.Errorf("SFS facts %v != VSFS facts %v", sf, vf)
	}
	af := runCheckers(prog, b.Aux)
	if len(af["use-after-free"]) < len(vf["use-after-free"]) {
		t.Errorf("Andersen facts report fewer UAFs (%v) than VSFS (%v)", af, vf)
	}
}
