package svfg_test

import (
	"strings"
	"testing"

	"vsfs/internal/andersen"
	"vsfs/internal/core"
	"vsfs/internal/ir"
	"vsfs/internal/lang"
	"vsfs/internal/memssa"
	"vsfs/internal/svfg"
)

func solve(t *testing.T, src string) (*ir.Program, *svfg.Graph, *core.Result) {
	t.Helper()
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	aux := andersen.Analyze(prog)
	mssa := memssa.Build(prog, aux)
	g := svfg.Build(prog, aux, mssa)
	return prog, g, core.Solve(g)
}

func holdsFn(prog *ir.Program, r *core.Result) func(ir.ID, ir.Obj) bool {
	return func(x ir.ID, o ir.Obj) bool {
		if prog.IsPointer(x) {
			return r.PointsTo(x).Has(uint32(o))
		}
		return r.ObjectSummary(prog.ObjNum(x)).Has(uint32(o))
	}
}

func findVar(t *testing.T, prog *ir.Program, prefix string) ir.ID {
	t.Helper()
	var best ir.ID
	for id := ir.ID(1); int(id) < prog.NumValues(); id++ {
		name := prog.Value(id).Name
		if prog.IsPointer(id) && strings.HasPrefix(name, prefix+".") && !strings.Contains(name, ".addr") {
			best = id
		}
	}
	if best == ir.None {
		t.Fatalf("no var %q", prefix)
	}
	return best
}

func findObj(t *testing.T, prog *ir.Program, name string) ir.Obj {
	t.Helper()
	for o := range ir.Obj(prog.NumObjects()) {
		if prog.ObjValue(o).Name == name {
			return o
		}
	}
	t.Fatalf("no object %q", name)
	return 0
}

const witnessSrc = `
struct Box { int *v; };

struct Box *wrap(int *p) {
  struct Box *b;
  b = malloc();
  b->v = p;
  return b;
}

int main() {
  int a;
  struct Box *bx;
  bx = wrap(&a);
  int *got;
  got = bx->v;
  return 0;
}
`

func TestWitnessThroughHeapAndCalls(t *testing.T) {
	prog, g, r := solve(t, witnessSrc)
	v := findVar(t, prog, "v") // the field load temp for bx->v
	obj := findObj(t, prog, "main.a")
	if !r.PointsTo(v).Has(uint32(obj)) {
		t.Fatal("precondition: v must point to main.a")
	}
	w := g.ExplainPointsTo(holdsFn(prog, r), v, obj)
	if w == nil {
		t.Fatal("no witness found for a true points-to fact")
	}
	if len(w.Steps) < 3 {
		t.Errorf("witness suspiciously short: %+v", w.Steps)
	}
	if w.Steps[0].Instr.Op != ir.Alloc {
		t.Errorf("witness does not start at the allocation: %v", w.Steps[0].Instr.Op)
	}
	if w.Steps[len(w.Steps)-1].Label != g.DefSite[v] {
		t.Error("witness does not end at the definition")
	}
	text := w.Format(prog)
	for _, want := range []string{"why may", "allocation", "alloc"} {
		if !strings.Contains(text, want) {
			t.Errorf("formatted witness missing %q:\n%s", want, text)
		}
	}
}

func TestWitnessAbsentForFalseFact(t *testing.T) {
	prog, g, r := solve(t, `
int main() {
  int a;
  int b;
  int *p;
  int *q;
  p = &a;
  q = &b;
  int *u;
  u = p;
  return 0;
}
`)
	u := findVar(t, prog, "p") // load temp of p: points to main.a only
	bObj := findObj(t, prog, "main.b")
	if r.PointsTo(u).Has(uint32(bObj)) {
		t.Fatal("precondition: u must not point to main.b")
	}
	if w := g.ExplainPointsTo(holdsFn(prog, r), u, bObj); w != nil {
		t.Errorf("witness produced for a false fact:\n%s", w.Format(prog))
	}
}

// Completeness: every solved points-to fact for loaded temps has a
// witness.
func TestWitnessCompleteOnProgram(t *testing.T) {
	prog, g, r := solve(t, witnessSrc)
	checked := 0
	for v := ir.ID(1); int(v) < prog.NumValues(); v++ {
		if !prog.IsPointer(v) || g.DefSite[v] == 0 {
			continue
		}
		r.PointsTo(v).ForEach(func(o uint32) {
			checked++
			if w := g.ExplainPointsTo(holdsFn(prog, r), v, ir.Obj(o)); w == nil {
				t.Errorf("no witness for %s → %s", prog.NameOf(v), prog.ObjValue(ir.Obj(o)).Name)
			}
		})
	}
	if checked == 0 {
		t.Fatal("nothing checked")
	}
}

// Witnesses are deterministic: two globals holding the same address
// both reach a callee through its call site, so the BFS meets one
// indirect edge per global on the way to the same FUNENTRY. Exploring
// them in slot (ascending object) order makes every solve render the
// same explanations.
func TestWitnessDeterministic(t *testing.T) {
	const src = `
int *g1;
int *g2;

void use() {
  int *x;
  x = g1;
  int *y;
  y = g2;
}

int main() {
  int a;
  g1 = &a;
  g2 = &a;
  use();
  return 0;
}
`
	renderings := map[string]int{}
	for range 40 {
		prog, g, r := solve(t, src)
		var b strings.Builder
		for v := ir.ID(1); int(v) < prog.NumValues(); v++ {
			if !prog.IsPointer(v) || g.DefSite[v] == 0 {
				continue
			}
			r.PointsTo(v).ForEach(func(o uint32) {
				if w := g.ExplainPointsTo(holdsFn(prog, r), v, ir.Obj(o)); w != nil {
					b.WriteString(w.Format(prog))
				}
			})
		}
		renderings[b.String()]++
	}
	if len(renderings) != 1 {
		t.Errorf("40 solves rendered %d distinct witness sets, want 1", len(renderings))
	}
}
