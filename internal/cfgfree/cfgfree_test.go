package cfgfree_test

import (
	"os"
	"path/filepath"
	"testing"

	"vsfs/internal/andersen"
	"vsfs/internal/cfgfree"
	"vsfs/internal/ir"
	"vsfs/internal/irparse"
	"vsfs/internal/lang"
)

// solveBoth builds the auxiliary result and the CFG-free result for one
// program.
func solveBoth(t *testing.T, prog *ir.Program) (*andersen.Result, *cfgfree.Result) {
	t.Helper()
	aux := andersen.Analyze(prog)
	return aux, cfgfree.Solve(prog, aux)
}

// checkInvariants asserts the portable per-program contract: the result
// replays exactly on the independent reference evaluator, is bracketed
// above by the auxiliary analysis, and re-solving is deterministic.
func checkInvariants(t *testing.T, prog *ir.Program, aux *andersen.Result, res *cfgfree.Result) {
	t.Helper()
	if err := cfgfree.Verify(prog, aux, res); err != nil {
		t.Error(err)
	}
	for id := ir.ID(1); int(id) < prog.NumValues(); id++ {
		if !res.PointsTo(id).SubsetOf(aux.PointsTo(id)) {
			t.Errorf("pts(%s): cfgfree %s ⊄ aux %s", prog.NameOf(id), res.PointsTo(id), aux.PointsTo(id))
		}
	}
	again := cfgfree.Solve(prog, aux)
	for id := ir.ID(1); int(id) < prog.NumValues(); id++ {
		if !res.PointsTo(id).Equal(again.PointsTo(id)) {
			t.Errorf("pts(%s) not deterministic: %s vs %s", prog.NameOf(id), res.PointsTo(id), again.PointsTo(id))
		}
	}
	for _, f := range prog.Funcs {
		f.ForEachInstr(func(in *ir.Instr) {
			if in.Op != ir.Call {
				return
			}
			a, b := res.CalleesOf(in), again.CalleesOf(in)
			if len(a) != len(b) {
				t.Errorf("callees @%d not deterministic: %v vs %v", in.Label, a, b)
				return
			}
			for i := range a {
				if a[i] != b[i] {
					t.Errorf("callees @%d not deterministic: %v vs %v", in.Label, a, b)
					return
				}
			}
		})
	}
}

func TestChecksCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "checks", "*.c"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no checks corpus: %v", err)
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := lang.Compile(string(src))
			if err != nil {
				t.Fatal(err)
			}
			aux, res := solveBoth(t, prog)
			checkInvariants(t, prog, aux, res)
		})
	}
}

func TestRegressionCorpus(t *testing.T) {
	var files []string
	for _, pat := range []string{
		filepath.Join("..", "oracle", "testdata", "regressions", "*.ir"),
		filepath.Join("..", "..", "testdata", "checks", "*.ir"),
	} {
		fs, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, fs...)
	}
	if len(files) == 0 {
		t.Fatal("no regression corpus")
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := irparse.Parse(string(src))
			if err != nil {
				t.Fatal(err)
			}
			aux, res := solveBoth(t, prog)
			checkInvariants(t, prog, aux, res)
		})
	}
}

// idOf resolves a source-level name to its value ID.
func idOf(t *testing.T, prog *ir.Program, name string) ir.ID {
	t.Helper()
	for id := ir.ID(1); int(id) < prog.NumValues(); id++ {
		if prog.NameOf(id) == name {
			return id
		}
	}
	t.Fatalf("no value named %q", name)
	return ir.None
}

// objOf resolves a source-level object name to its object number.
func objOf(t *testing.T, prog *ir.Program, name string) ir.Obj {
	t.Helper()
	return prog.ObjNum(idOf(t, prog, name))
}

// setEquals reports whether a points-to set holds exactly want, in order.
func setEquals(prog *ir.Program, set interface{ Slice() []uint32 }, want ...ir.Obj) bool {
	got := set.Slice()
	if len(got) != len(want) {
		return false
	}
	for i, o := range got {
		if ir.Obj(o) != want[i] {
			return false
		}
	}
	return true
}

// TestWindowPrecision is the signature case where the CFG-free backend
// beats Andersen: two stores to a singleton cell in one block, each
// followed by a load. The auxiliary analysis conflates both loads to
// {a, b}; the strong-update windows split them.
func TestWindowPrecision(t *testing.T) {
	const src = `
func main() {
entry:
  pa = alloc a 0
  pb = alloc b 0
  q = alloc qcell 0
  store q, pa
  x = load q
  store q, pb
  y = load q
  ret
}
`
	prog, err := irparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	aux, res := solveBoth(t, prog)
	checkInvariants(t, prog, aux, res)

	a, b, qcell := objOf(t, prog, "a"), objOf(t, prog, "b"), objOf(t, prog, "qcell")
	x, y := idOf(t, prog, "x"), idOf(t, prog, "y")
	if !setEquals(prog, res.PointsTo(x), a) {
		t.Errorf("pts(x) = %s, want {a}", res.PointsTo(x))
	}
	if !setEquals(prog, res.PointsTo(y), b) {
		t.Errorf("pts(y) = %s, want {b}", res.PointsTo(y))
	}
	if aux.PointsTo(x).Len() != 2 || aux.PointsTo(y).Len() != 2 {
		t.Fatalf("auxiliary analysis should conflate both loads to 2 objects (got %s, %s) — precision case is vacuous",
			aux.PointsTo(x), aux.PointsTo(y))
	}
	// The summary query stays flow-insensitive: everything ever stored.
	if !setEquals(prog, res.ObjectSummary(qcell), a, b) {
		t.Errorf("ObjectSummary(qcell) = %s, want {a, b}", res.ObjectSummary(qcell))
	}

	// Consumed/yielded at the load labels reflect the windows.
	var loads []*ir.Instr
	prog.Funcs[0].ForEachInstr(func(in *ir.Instr) {
		if in.Op == ir.Load {
			loads = append(loads, in)
		}
	})
	if len(loads) != 2 {
		t.Fatalf("expected 2 loads, got %d", len(loads))
	}
	if got := res.ConsumedSet(loads[0].Label, qcell); !setEquals(prog, got, a) {
		t.Errorf("ConsumedSet(first load, qcell) = %s, want {a}", got)
	}
	if got := res.ConsumedSet(loads[1].Label, qcell); !setEquals(prog, got, b) {
		t.Errorf("ConsumedSet(second load, qcell) = %s, want {b}", got)
	}
	if res.Stats.WindowedAccesses == 0 {
		t.Error("Stats.WindowedAccesses = 0, want > 0")
	}
}

// TestCallClobbersWindow pins the conservative side of the window scan:
// a call between the anchor store and the load may rewrite the cell, so
// the load must fall back to the global contents set.
func TestCallClobbersWindow(t *testing.T) {
	const src = `
func helper() {
entry:
  ret
}
func main() {
entry:
  pa = alloc a 0
  pb = alloc b 0
  q = alloc qcell 0
  store q, pa
  store q, pb
  call helper()
  y = load q
  ret
}
`
	prog, err := irparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	aux, res := solveBoth(t, prog)
	checkInvariants(t, prog, aux, res)
	a, b, y := objOf(t, prog, "a"), objOf(t, prog, "b"), idOf(t, prog, "y")
	if !setEquals(prog, res.PointsTo(y), a, b) {
		t.Errorf("pts(y) = %s, want {a, b}: the call clobbers the window", res.PointsTo(y))
	}
}

// TestYieldedSet pins the three YieldedSet regimes on one program:
// strong store (exact overwrite), weak store (accumulate), non-store
// (pass-through).
func TestYieldedSet(t *testing.T) {
	const src = `
func main() {
entry:
  pa = alloc a 0
  pb = alloc b 0
  q = alloc qcell 0
  store q, pa
  store q, pb
  y = load q
  ret
}
`
	prog, err := irparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	_, res := solveBoth(t, prog)
	a, b, qcell := objOf(t, prog, "a"), objOf(t, prog, "b"), objOf(t, prog, "qcell")

	var stores []*ir.Instr
	var load *ir.Instr
	prog.Funcs[0].ForEachInstr(func(in *ir.Instr) {
		switch in.Op {
		case ir.Store:
			stores = append(stores, in)
		case ir.Load:
			load = in
		}
	})
	// Both stores strongly update the singleton qcell: each yields
	// exactly the stored value.
	if got := res.YieldedSet(stores[0].Label, qcell); !setEquals(prog, got, a) {
		t.Errorf("YieldedSet(store pa, qcell) = %s, want {a}", got)
	}
	if got := res.YieldedSet(stores[1].Label, qcell); !setEquals(prog, got, b) {
		t.Errorf("YieldedSet(store pb, qcell) = %s, want {b}", got)
	}
	// A non-store passes its consumed set through.
	if got := res.YieldedSet(load.Label, qcell); !setEquals(prog, got, b) {
		t.Errorf("YieldedSet(load, qcell) = %s, want {b}", got)
	}
}
