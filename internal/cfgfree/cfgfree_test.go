package cfgfree_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vsfs/internal/andersen"
	"vsfs/internal/bitset"
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

// TestWindowFreeEqualsAndersen pins "cfgfree = Andersen + windows": on
// a program with no strong-update window — heap cells, and a pointer
// with two targets — every points-to set and every call's callee set
// must be Andersen's.
func TestWindowFreeEqualsAndersen(t *testing.T) {
	const src = `
func id(x) {
entry:
  ret x
}
func id2(x) {
entry:
  y = copy x
  ret y
}
func put(cell, v) {
entry:
  store cell, v
  ret
}
func main() {
entry:
  h = alloc.heap ho 2
  k = alloc.heap ko 1
  a = alloc a 0
  fa = funcaddr id
  fb = funcaddr id2
  br left, right
left:
  m1 = copy h
  jmp join
right:
  m2 = copy k
  jmp join
join:
  m = phi(m1, m2)
  fp = phi(fa, fb)
  call put(m, a)
  f = field h, 1
  store f, k
  r = calli fp(m)
  t = load m
  u = load f
  store m, t
  v = load r
  ret
}
`
	prog, err := irparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	aux, res := solveBoth(t, prog)
	checkInvariants(t, prog, aux, res)
	if res.Stats.WindowedAccesses != 0 {
		t.Fatalf("%d windowed accesses, want none: the comparison would not be window-free",
			res.Stats.WindowedAccesses)
	}
	for id := ir.ID(1); int(id) < prog.NumValues(); id++ {
		if !res.PointsTo(id).Equal(aux.PointsTo(id)) {
			t.Errorf("pts(%s): cfgfree %s, Andersen %s", prog.NameOf(id), res.PointsTo(id), aux.PointsTo(id))
		}
	}
	icallees := 0
	for _, f := range prog.Funcs {
		f.ForEachInstr(func(in *ir.Instr) {
			if in.Op != ir.Call {
				return
			}
			if in.Callee == nil {
				icallees = len(res.CalleesOf(in))
			}
			got, want := map[*ir.Function]bool{}, map[*ir.Function]bool{}
			for _, fn := range res.CalleesOf(in) {
				got[fn] = true
			}
			for _, fn := range aux.CalleesOf(in) {
				want[fn] = true
			}
			if len(got) != len(want) || len(res.CalleesOf(in)) != len(got) {
				t.Errorf("callees @%d: cfgfree %v, Andersen %v", in.Label, res.CalleesOf(in), aux.CalleesOf(in))
				return
			}
			for fn := range want {
				if !got[fn] {
					t.Errorf("callees @%d: cfgfree %v, Andersen %v", in.Label, res.CalleesOf(in), aux.CalleesOf(in))
					return
				}
			}
		})
	}
	if icallees != 2 {
		t.Fatalf("the indirect call resolves %d callees, want id and id2", icallees)
	}
}

// collapseChain is how many copies TestCollapseMergesCycles appends: a
// solve pops each once, which takes it past the engine's periodic cycle
// collapse (every 20,000 pops) after the load/store rules have closed
// a cycle through an object's contents.
const collapseChain = 25000

// TestCollapseMergesCycles runs the engine's cycle collapse under the
// window load rule. A windowed load's store value v sits on the phi
// cycle v ↔ w, merged before solving starts; the heap cell c's contents
// sit on the cycle c ↔ y that "y = load r; store r, y" closes, merged
// by the periodic collapse. Merged members share one set, every query
// on them answers as their representative does, and the facts are the
// ones the window rule gives without merging.
func TestCollapseMergesCycles(t *testing.T) {
	var b strings.Builder
	b.WriteString(`
func main() {
entry:
  pa = alloc a 0
  pb = alloc b 0
  q = alloc qcell 0
  r = alloc.heap c 0
  store r, pb
  y = load r
  store r, y
  store q, pb
  jmp loop
loop:
  v = phi(pa, w)
  w = copy v
  store q, v
  x = load q
  br loop, exit
exit:
  p0 = copy pa
`)
	for i := 1; i < collapseChain; i++ {
		fmt.Fprintf(&b, "  p%d = copy p%d\n", i, i-1)
	}
	b.WriteString("  ret\n}\n")
	prog, err := irparse.Parse(b.String())
	if err != nil {
		t.Fatal(err)
	}
	aux, res := solveBoth(t, prog)
	if err := cfgfree.Verify(prog, aux, res); err != nil {
		t.Fatal(err)
	}

	a, bo, qcell, c := objOf(t, prog, "a"), objOf(t, prog, "b"), objOf(t, prog, "qcell"), objOf(t, prog, "c")
	v, w, x, y := idOf(t, prog, "v"), idOf(t, prog, "w"), idOf(t, prog, "x"), idOf(t, prog, "y")
	if res.PointsTo(v) != res.PointsTo(w) || res.ObjectSummary(c) != res.PointsTo(y) {
		t.Fatal("the cycles v ↔ w and c ↔ y were not merged: the test would not exercise collapse")
	}

	for _, tc := range []struct {
		name string
		set  *bitset.Sparse
		want []ir.Obj
	}{
		{"pts(v)", res.PointsTo(v), []ir.Obj{a}},
		{"pts(x)", res.PointsTo(x), []ir.Obj{a}},
		{"pts(y)", res.PointsTo(y), []ir.Obj{bo}},
		{"pts(p" + fmt.Sprint(collapseChain-1) + ")", res.PointsTo(idOf(t, prog, fmt.Sprintf("p%d", collapseChain-1))), []ir.Obj{a}},
		{"summary(c)", res.ObjectSummary(c), []ir.Obj{bo}},
		{"summary(qcell)", res.ObjectSummary(qcell), []ir.Obj{a, bo}},
	} {
		if !setEquals(prog, tc.set, tc.want...) {
			t.Errorf("%s = %s, want %v", tc.name, tc.set, tc.want)
		}
	}

	// Every query on a merged member answers as the representative: the
	// window at x reads v's set, and c answers with y's set everywhere.
	var load, strong *ir.Instr
	for _, blk := range prog.Funcs[0].Blocks {
		for _, in := range blk.Instrs {
			if in.Op == ir.Load && in.Def == x {
				load = in
			}
			if in.Op == ir.Store && in.Uses[1] == v {
				strong = in
			}
			if got := res.ConsumedSet(in.Label, c); !got.Equal(res.PointsTo(y)) {
				t.Errorf("ConsumedSet(ℓ%d, c) = %s, want pts(y) = %s", in.Label, got, res.PointsTo(y))
			}
			if got := res.YieldedSet(in.Label, c); !got.Equal(res.PointsTo(y)) {
				t.Errorf("YieldedSet(ℓ%d, c) = %s, want pts(y) = %s", in.Label, got, res.PointsTo(y))
			}
		}
	}
	if got := res.ConsumedSet(load.Label, qcell); !got.Equal(res.PointsTo(w)) {
		t.Errorf("ConsumedSet(load x, qcell) = %s, want pts(w) = %s", got, res.PointsTo(w))
	}
	if got := res.YieldedSet(strong.Label, qcell); got != res.PointsTo(w) {
		t.Errorf("YieldedSet(store v, qcell) = %s, want pts(w) = %s", got, res.PointsTo(w))
	}
}
