package lang

import (
	"strings"
	"testing"

	"vsfs/internal/andersen"
	"vsfs/internal/core"
	"vsfs/internal/ir"
	"vsfs/internal/memssa"
	"vsfs/internal/sfs"
	"vsfs/internal/svfg"
)

// analyze compiles mini-C and runs the full pipeline with VSFS.
func analyze(t *testing.T, src string) (*ir.Program, *core.Result) {
	t.Helper()
	prog, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	aux := andersen.Analyze(prog)
	mssa := memssa.Build(prog, aux)
	g := svfg.Build(prog, aux, mssa)
	return prog, core.Solve(g)
}

// ptsOfTemp finds the lowered temp defined by the nth load of the
// given variable's address... too fragile; instead tests use objects:
// objNames returns the set of object names in pts(v) for the pointer
// temp whose name has the given prefix and highest sequence number
// (i.e. the last lowered read of that variable).
func lastTemp(t *testing.T, prog *ir.Program, prefix string) ir.ID {
	t.Helper()
	var best ir.ID
	for id := ir.ID(1); int(id) < prog.NumValues(); id++ {
		name := prog.Value(id).Name
		if prog.IsPointer(id) && strings.HasPrefix(name, prefix+".") && !strings.Contains(name, ".addr") {
			best = id
		}
	}
	if best == ir.None {
		t.Fatalf("no temp with prefix %q", prefix)
	}
	return best
}

func wantObjs(t *testing.T, prog *ir.Program, r *core.Result, v ir.ID, want ...string) {
	t.Helper()
	got := map[string]bool{}
	r.PointsTo(v).ForEach(func(o uint32) { got[prog.ObjValue(ir.Obj(o)).Name] = true })
	if len(got) != len(want) {
		t.Errorf("pts = %v, want %v", got, want)
		return
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("pts = %v, want %v", got, want)
			return
		}
	}
}

func TestLexerBasics(t *testing.T) {
	toks, err := lex("int *p; // c\n p = q->next; /* block\ncomment */ x != y;")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		if tk.kind != tokEOF {
			texts = append(texts, tk.text)
		}
	}
	want := []string{"int", "*", "p", ";", "p", "=", "q", "->", "next", ";", "x", "!=", "y", ";"}
	if strings.Join(texts, " ") != strings.Join(want, " ") {
		t.Errorf("tokens = %v, want %v", texts, want)
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := lex("int a @ b;"); err == nil || !strings.Contains(err.Error(), "unexpected character") {
		t.Errorf("err = %v", err)
	}
	if _, err := lex("/* unterminated"); err == nil || !strings.Contains(err.Error(), "unterminated") {
		t.Errorf("err = %v", err)
	}
}

func TestParseAndCheckErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"undefined", "int main() { return x; }", "undefined name"},
		{"dup struct", "struct S { int a; };\nstruct S { int a; };", "duplicate struct"},
		{"self struct", "struct S { struct S s; };", "contains itself"},
		{"unknown struct", "struct T *f() { return null; }", "unknown struct"},
		{"bad deref", "int main() { int a; a = *a; return 0; }", "cannot dereference"},
		{"bad field", "struct S { int a; };\nint main() { struct S s; s.b = 1; return 0; }", "no field"},
		{"arrow on value", "struct S { int a; };\nint main() { struct S s; s->a = 1; return 0; }", "-> on non-struct-pointer"},
		{"call non-fn", "int main() { int a; a(); return 0; }", "call of non-function"},
		{"arity", "int f(int a) { return a; }\nint main() { f(); return 0; }", "0 arguments, want 1"},
		{"type mismatch", "int main() { int *p; int a; p = a; return 0; }", "cannot assign"},
		{"malloc to int", "int main() { int a; a = malloc(); return 0; }", "malloc assigned to non-pointer"},
		{"struct by value", "struct S { int a; };\nint f(struct S s) { return 0; }", "aggregate"},
		{"struct assign", "struct S { int a; };\nint main() { struct S a; struct S b; a = b; return 0; }", "aggregate values cannot"},
		{"void var", "int main() { void v; return 0; }", "void variable"},
		{"missing return value", "int f() { return; }", "must return a value"},
		{"redeclaration", "int main() { int a; int a; return 0; }", "redeclaration"},
		{"dup param", "int f(int a, int a) { return 0; }", "duplicate parameter"},
		{"null to int", "int main() { int a; a = null; return 0; }", "null assigned to non-pointer"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Compile(c.src)
			if err == nil {
				t.Fatalf("compile succeeded, want error with %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error = %v, want substring %q", err, c.want)
			}
		})
	}
}

func TestBasicAddressFlow(t *testing.T) {
	prog, r := analyze(t, `
int main() {
  int a;
  int *p;
  int *q;
  p = &a;
  q = p;
  return 0;
}
`)
	// q's last load should point to main.a.
	wantObjs(t, prog, r, lastTemp(t, prog, "p"), "main.a")
}

func TestHeapAndStrongUpdate(t *testing.T) {
	prog, r := analyze(t, `
int main() {
  int a;
  int b;
  int *p;
  p = &a;
  p = &b;
  int *v;
  v = p;
  return 0;
}
`)
	// p is a singleton stack slot: the second store strongly updates it.
	wantObjs(t, prog, r, lastTemp(t, prog, "p"), "main.b")
}

func TestStructFieldFlow(t *testing.T) {
	prog, r := analyze(t, `
struct Node {
  int *data;
  struct Node *next;
};

int main() {
  struct Node n;
  struct Node *h;
  int x;
  h = &n;
  h->data = &x;
  h->next = h;
  int *d;
  d = h->data;
  struct Node *m;
  m = h->next;
  return 0;
}
`)
	wantObjs(t, prog, r, lastTemp(t, prog, "data"), "main.x")
	wantObjs(t, prog, r, lastTemp(t, prog, "next"), "main.n")
}

func TestMallocFlow(t *testing.T) {
	prog, r := analyze(t, `
struct Node { int *data; struct Node *next; };

struct Node *mk() {
  struct Node *n;
  n = malloc();
  return n;
}

int main() {
  struct Node *a;
  struct Node *b;
  a = mk();
  b = mk();
  a->next = b;
  struct Node *c;
  c = a->next;
  return 0;
}
`)
	// Context-insensitive: both mallocs share... no — each malloc site is
	// one abstract object; mk has a single malloc, so both a and b point
	// to the same heap object.
	got := r.PointsTo(lastTemp(t, prog, "next"))
	if got.Len() != 1 {
		t.Errorf("|pts(c)| = %d, want 1 heap object", got.Len())
	}
	name := ""
	got.ForEach(func(o uint32) { name = prog.ObjValue(ir.Obj(o)).Name })
	if !strings.HasPrefix(name, "heap.") {
		t.Errorf("pts(c) = %q, want a heap object", name)
	}
}

func TestFunctionPointers(t *testing.T) {
	prog, r := analyze(t, `
int *id(int *x) { return x; }

int main() {
  int a;
  int *(*fp)(int *);
  fp = id;
  int *res;
  res = fp(&a);
  return 0;
}
`)
	wantObjs(t, prog, r, lastTemp(t, prog, "r"), "main.a")
	// The indirect call resolved to id.
	var call *ir.Instr
	prog.FuncByName("main").ForEachInstr(func(in *ir.Instr) {
		if in.IsIndirectCall() {
			call = in
		}
	})
	if call == nil {
		t.Fatal("no indirect call lowered")
	}
	if callees := r.CalleesOf(call); len(callees) != 1 || callees[0].Name != "id" {
		t.Errorf("callees = %v", callees)
	}
}

func TestGlobalsAndInit(t *testing.T) {
	prog, r := analyze(t, `
int g;
int *gp = &g;

int main() {
  int *v;
  v = gp;
  return 0;
}
`)
	wantObjs(t, prog, r, lastTemp(t, prog, "gp"), "g.obj")
}

func TestControlFlowNullAndLoop(t *testing.T) {
	prog, r := analyze(t, `
int main() {
  int a;
  int b;
  int *p;
  p = null;
  if (a) {
    p = &a;
  } else {
    p = &b;
  }
  while (b) {
    p = &a;
  }
  int *v;
  v = p;
  return 0;
}
`)
	wantObjs(t, prog, r, lastTemp(t, prog, "p"), "main.a", "main.b")
}

func TestNullStrongUpdateClears(t *testing.T) {
	prog, r := analyze(t, `
int main() {
  int a;
  int *p;
  p = &a;
  p = null;
  int *v;
  v = p;
  return 0;
}
`)
	got := r.PointsTo(lastTemp(t, prog, "p"))
	if !got.IsEmpty() {
		t.Errorf("pts(v) = %v, want empty after null strong update", got)
	}
}

func TestIndirectCallTwoTargets(t *testing.T) {
	prog, r := analyze(t, `
int x;
int y;
int *fx() { return &x; }
int *fy() { return &y; }

int main() {
  int c;
  int *(*fp)();
  if (c) {
    fp = fx;
  } else {
    fp = fy;
  }
  int *v;
  v = fp();
  return 0;
}
`)
	wantObjs(t, prog, r, lastTemp(t, prog, "r"), "x.obj", "y.obj")
}

func TestMatchesSFS(t *testing.T) {
	src := `
struct List { int *head; struct List *tail; };

struct List *cons(int *h, struct List *t) {
  struct List *c;
  c = malloc();
  c->head = h;
  c->tail = t;
  return c;
}

int main() {
  int a; int b;
  struct List *l;
  l = cons(&a, null);
  l = cons(&b, l);
  int *first;
  first = l->head;
  struct List *rest;
  rest = l->tail;
  return 0;
}
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	aux := andersen.Analyze(prog)
	mssa := memssa.Build(prog, aux)
	g := svfg.Build(prog, aux, mssa)
	sfsRes := sfs.Solve(g.Clone())
	vsfsRes := core.Solve(g.Clone())
	for v := ir.ID(1); int(v) < prog.NumValues(); v++ {
		if !prog.IsPointer(v) {
			continue
		}
		if !sfsRes.PointsTo(v).Equal(vsfsRes.PointsTo(v)) {
			t.Fatalf("pts(%s): SFS %v ≠ VSFS %v", prog.NameOf(v), sfsRes.PointsTo(v), vsfsRes.PointsTo(v))
		}
	}
	// Both mallocs flow into l over the loop of conses.
	first := vsfsRes.PointsTo(lastTemp(t, prog, "head"))
	names := map[string]bool{}
	first.ForEach(func(o uint32) { names[prog.ObjValue(ir.Obj(o)).Name] = true })
	if !names["main.a"] && !names["main.b"] {
		t.Errorf("first = %v, expected stack objects", names)
	}
}

func TestDeadCodeAfterReturn(t *testing.T) {
	prog, err := Compile(`
int main() {
  int a;
  int *p;
  p = &a;
  return 0;
  p = null;
}
`)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if prog.FuncByName("main") == nil {
		t.Fatal("main missing")
	}
}

func TestNestedIfElseChain(t *testing.T) {
	_, err := Compile(`
int main() {
  int a;
  if (a) {
    a = 1;
  } else if (a > 2) {
    a = 2;
  } else {
    a = 3;
  }
  return a;
}
`)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
}
