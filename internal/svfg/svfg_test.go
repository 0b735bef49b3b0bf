package svfg

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"vsfs/internal/andersen"
	"vsfs/internal/guard"
	"vsfs/internal/ir"
	"vsfs/internal/irparse"
	"vsfs/internal/memssa"
	"vsfs/internal/workload"
)

func buildTestGraph(t *testing.T, src string) *Graph {
	t.Helper()
	prog, err := irparse.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	aux := andersen.Analyze(prog)
	mssa := memssa.Build(prog, aux)
	return Build(prog, aux, mssa)
}

func varByName(t *testing.T, prog *ir.Program, name string) ir.ID {
	t.Helper()
	for id := ir.ID(1); int(id) < prog.NumValues(); id++ {
		if prog.IsPointer(id) && prog.Value(id).Name == name {
			return id
		}
	}
	t.Fatalf("no pointer %q", name)
	return ir.None
}

func objByName(t *testing.T, prog *ir.Program, name string) ir.Obj {
	t.Helper()
	for o := range ir.Obj(prog.NumObjects()) {
		if prog.ObjValue(o).Name == name {
			return o
		}
	}
	t.Fatalf("no object %q", name)
	return 0
}

const src = `
func callee(q) {
entry:
  x = alloc tgt 0
  store q, x
  ret
}
func recur(n) {
entry:
  l = alloc local 0
  call recur(n)
  ret
}
func main() {
entry:
  p = alloc a 0
  h = alloc.heap hobj 0
  fp = funcaddr callee
  calli fp(p)
  v = load p
  w = copy v
  ret
}
`

func TestDirectEdges(t *testing.T) {
	g := buildTestGraph(t, src)
	prog := g.Prog
	v := varByName(t, prog, "v")
	if g.DefSite[v] == 0 {
		t.Fatal("v has no def site")
	}
	if prog.Instrs[g.DefSite[v]].Op != ir.Load {
		t.Errorf("def of v is %v, want load", prog.Instrs[g.DefSite[v]].Op)
	}
	users := g.UsersOf(v)
	if len(users) != 1 || prog.Instrs[users[0]].Op != ir.Copy {
		t.Errorf("users of v wrong: %v", users)
	}
	// Parameters are defined at FUNENTRY.
	q := prog.FuncByName("callee").Params[0]
	if prog.Instrs[g.DefSite[q]].Op != ir.FunEntry {
		t.Error("param not defined at funentry")
	}
	if g.NumDirectEdges == 0 {
		t.Error("no direct edges counted")
	}
}

func TestDeltaNodes(t *testing.T) {
	g := buildTestGraph(t, src)
	prog := g.Prog
	callee := prog.FuncByName("callee")
	if !g.Delta[callee.EntryInstr.Label] {
		t.Error("address-taken function entry not δ")
	}
	main := prog.FuncByName("main")
	if g.Delta[main.EntryInstr.Label] {
		t.Error("main entry marked δ despite not being address-taken")
	}
	var icall *ir.Instr
	main.ForEachInstr(func(in *ir.Instr) {
		if in.IsIndirectCall() {
			icall = in
		}
	})
	ret := g.MSSA.CallRets[icall]
	if ret == nil {
		t.Fatal("indirect call has no CallRet")
	}
	if !g.Delta[ret.Label] {
		t.Error("indirect call's CallRet not δ")
	}
	// Direct (recursive) call's CallRet is not δ.
	var dcall *ir.Instr
	prog.FuncByName("recur").ForEachInstr(func(in *ir.Instr) {
		if in.Op == ir.Call {
			dcall = in
		}
	})
	if r := g.MSSA.CallRets[dcall]; r != nil && g.Delta[r.Label] {
		t.Error("direct call's CallRet marked δ")
	}
}

func TestSingletons(t *testing.T) {
	g := buildTestGraph(t, src)
	prog := g.Prog
	if !g.IsSingleton(objByName(t, prog, "a")) {
		t.Error("stack object of non-recursive main not singleton")
	}
	if g.IsSingleton(objByName(t, prog, "hobj")) {
		t.Error("heap object marked singleton")
	}
	if g.IsSingleton(objByName(t, prog, "local")) {
		t.Error("stack object of recursive function marked singleton")
	}
	if g.IsSingleton(objByName(t, prog, "&callee")) {
		t.Error("function object marked singleton")
	}
}

func TestGlobalSingletonAndCollapsedField(t *testing.T) {
	g := buildTestGraph(t, `
global gg 2
func main() {
entry:
  s = alloc agg 3
  f9 = field s, 9
  f1 = field s, 1
  x = alloc o 0
  store f9, x
  store f1, x
  ret
}
`)
	prog := g.Prog
	if !g.IsSingleton(objByName(t, prog, "gg.obj")) {
		t.Error("global object not singleton")
	}
	if !g.IsSingleton(objByName(t, prog, "agg.f1")) {
		t.Error("in-range field of stack aggregate not singleton")
	}
	// Offset 9 clamps onto agg.f2 (NumFields-1): that object stands for
	// several concrete locations and must not be a singleton.
	fo := prog.FieldObj(prog.ObjID(objByName(t, prog, "agg")), 9)
	if prog.Value(fo).Name != "agg.f2" {
		t.Fatalf("clamped field = %s", prog.Value(fo).Name)
	}
	if g.IsSingleton(prog.ObjNum(fo)) {
		t.Error("collapsed field object marked singleton")
	}
}

// callEntryTriple returns the indirect call in src's main, callee's
// FUNENTRY and object a: an interprocedural edge memory SSA leaves to
// on-the-fly resolution, so it is absent after Build.
func callEntryTriple(t *testing.T, g *Graph) (call, entry uint32, a ir.Obj) {
	t.Helper()
	for _, in := range g.Prog.FuncByName("main").EntryInstr.Block.Instrs {
		if in.Op == ir.Call && in.IsIndirectCall() {
			call = in.Label
		}
	}
	if call == 0 {
		t.Fatal("no indirect call in main")
	}
	return call, g.Prog.FuncByName("callee").EntryInstr.Label, objByName(t, g.Prog, "a")
}

func TestAddIndirectEdgeDedup(t *testing.T) {
	g := buildTestGraph(t, src)
	call, entry, a := callEntryTriple(t, g)
	if len(g.IndirSuccs(call, a)) != 0 {
		t.Fatalf("indirect call wired at build: %v", g.IndirSuccs(call, a))
	}
	before := g.NumIndirectEdges
	if !g.AddIndirectEdge(call, entry, a) {
		t.Error("fresh edge not new")
	}
	if g.AddIndirectEdge(call, entry, a) {
		t.Error("duplicate edge reported new")
	}
	if g.NumIndirectEdges != before+1 {
		t.Errorf("edge count = %d, want %d", g.NumIndirectEdges, before+1)
	}
	if got := g.IndirSuccs(call, a); !slices.Equal(got, []uint32{entry}) {
		t.Errorf("IndirSuccs = %v, want [%d]", got, entry)
	}
	s, ok := g.Slot(call, a)
	if !ok {
		t.Fatalf("Slot(call, a) = %d, %v", s, ok)
	}
	if static, added := g.SlotSuccs(s), g.AppendGained(nil, s); len(static) != 0 || len(added) != 1 || g.SlotNode(int(added[0])) != entry || g.SlotObj(int(added[0])) != a {
		t.Errorf("SlotSuccs(%d) = %v, %v; want no static successor and the one gained slot (ℓ%d, a)", s, static, added, entry)
	}
}

// An edge whose endpoint does not carry the object in μ∪χ breaks the
// slot layout's contract: AddIndirectEdge panics naming the node and
// the object, and guard.Recover turns that into a PhaseError.
func TestAddIndirectEdgeOutsideDomainPanics(t *testing.T) {
	g := buildTestGraph(t, src)
	call, entry, a := callEntryTriple(t, g)
	alloc := g.DefSite[varByName(t, g.Prog, "h")] // an ALLOC: empty μ∪χ
	for _, tc := range []struct {
		name     string
		from, to uint32
		bad      uint32
	}{
		{"source", alloc, entry, alloc},
		{"target", call, alloc, alloc},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := guard.Recover(context.Background(), "svfg", "", func() error {
				g.AddIndirectEdge(tc.from, tc.to, a)
				return nil
			})
			var pe *guard.PhaseError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want a PhaseError", err)
			}
			msg := fmt.Sprint(pe.Value)
			if !strings.Contains(msg, fmt.Sprintf("not in μ∪χ of ℓ%d", tc.bad)) || !strings.Contains(msg, g.Prog.ObjValue(a).Name) {
				t.Errorf("panic %q does not name ℓ%d and %s", msg, tc.bad, g.Prog.ObjValue(a).Name)
			}
		})
	}
}

// fanSrc calls through a pointer that may reach any of five setters.
const fanSrc = `
func f0(q) {
entry:
  x = alloc t0 0
  store q, x
  ret
}
func f1(q) {
entry:
  x = alloc t1 0
  store q, x
  ret
}
func f2(q) {
entry:
  x = alloc t2 0
  store q, x
  ret
}
func f3(q) {
entry:
  x = alloc t3 0
  store q, x
  ret
}
func f4(q) {
entry:
  x = alloc t4 0
  store q, x
  ret
}
func main() {
entry:
  p = alloc a 0
  cell = alloc c 0
  s0 = funcaddr f0
  store cell, s0
  s1 = funcaddr f1
  store cell, s1
  s2 = funcaddr f2
  store cell, s2
  s3 = funcaddr f3
  store cell, s3
  s4 = funcaddr f4
  store cell, s4
  fp = load cell
  calli fp(p)
  ret
}
`

// Edges added to a clone or to its original after cloning are invisible
// to the other side, including edges the original puts in overflow
// cells it had to spare when it was cloned.
func TestCloneIsolation(t *testing.T) {
	g := buildTestGraph(t, fanSrc)
	var call uint32
	for _, in := range g.Prog.FuncByName("main").EntryInstr.Block.Instrs {
		if in.Op == ir.Call {
			call = in.Label
		}
	}
	a := objByName(t, g.Prog, "a")
	var e [5]uint32
	for i := range e {
		e[i] = g.Prog.FuncByName(fmt.Sprintf("f%d", i)).EntryInstr.Label
	}

	// Disjoint additions after cloning an empty list.
	c := g.Clone()
	g.AddIndirectEdge(call, e[0], a)
	if got := c.IndirSuccs(call, a); len(got) != 0 {
		t.Errorf("original's edge leaked into the clone: %v", got)
	}
	c.AddIndirectEdge(call, e[1], a)
	if got := g.IndirSuccs(call, a); !slices.Equal(got, []uint32{e[0]}) {
		t.Errorf("clone's edge leaked into the original: %v", got)
	}

	// Cells to spare: both sides add past the used ones.
	g.AddIndirectEdge(call, e[1], a)
	g.AddIndirectEdge(call, e[2], a)
	if last := g.gained.chunks[len(g.gained.chunks)-1]; len(last) == cap(last) {
		t.Fatal("no spare cells: the test does not exercise the copy")
	}
	d := g.Clone()
	if !d.AddIndirectEdge(call, e[3], a) || !g.AddIndirectEdge(call, e[4], a) {
		t.Fatal("fresh edges not new")
	}
	if got, want := g.IndirSuccs(call, a), []uint32{e[0], e[1], e[2], e[4]}; !slices.Equal(got, want) {
		t.Errorf("original = %v, want %v", got, want)
	}
	if got, want := d.IndirSuccs(call, a), []uint32{e[0], e[1], e[2], e[3]}; !slices.Equal(got, want) {
		t.Errorf("clone = %v, want %v", got, want)
	}
}

func TestStatsCounts(t *testing.T) {
	g := buildTestGraph(t, src)
	if g.NumNodes != len(g.Prog.Instrs)-1 {
		t.Errorf("NumNodes = %d, want %d", g.NumNodes, len(g.Prog.Instrs)-1)
	}
	if g.NumTopLevel == 0 || g.NumAddressTaken == 0 {
		t.Error("variable counts empty")
	}
	if g.NumTopLevel+g.NumAddressTaken != g.Prog.NumValues()-1 {
		t.Error("variable counts do not partition the value space")
	}
}

var graphSink *Graph

// BenchmarkSVFG times SVFG assembly alone, over a prebuilt memory SSA.
func BenchmarkSVFG(b *testing.B) {
	for _, name := range []string{"nano", "bash", "lynx"} {
		b.Run(name, func(b *testing.B) {
			prog := workload.ProfileByName(name).Build()
			aux := andersen.Analyze(prog)
			mssa := memssa.Build(prog, aux)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				graphSink = Build(prog, aux, mssa)
			}
		})
	}
}
