package lang

import (
	"strings"
	"testing"

	"vsfs/internal/ir"
)

func TestForLoopFlow(t *testing.T) {
	prog, r := analyze(t, `
struct Node { int *data; struct Node *next; };

int main() {
  int i;
  int x;
  struct Node *head;
  head = null;
  for (i = 0; i < 10; i = i + 1) {
    struct Node *n;
    n = malloc();
    n->data = &x;
    n->next = head;
    head = n;
  }
  int *d;
  d = head->data;
  struct Node *rest;
  rest = head->next;
  return 0;
}
`)
	wantObjs(t, prog, r, lastTemp(t, prog, "data"), "main.x")
	// rest points back into the list (the single malloc site).
	got := r.PointsTo(lastTemp(t, prog, "next"))
	if got.Len() != 1 {
		t.Errorf("|pts(rest)| = %d, want 1", got.Len())
	}
}

func TestDoWhileFlow(t *testing.T) {
	prog, r := analyze(t, `
int main() {
  int a;
  int b;
  int *p;
  p = &a;
  do {
    p = &b;
  } while (a > 0);
  int *v;
  v = p;
  return 0;
}
`)
	// The do-while body always executes at least once, but the analysis
	// is path-insensitive over the back edge: p may be &b only at the
	// final read (the store in the body strongly updates the slot, and
	// the loop exit reads after the body).
	got := map[string]bool{}
	r.PointsTo(lastTemp(t, prog, "p")).ForEach(func(o uint32) {
		got[prog.ObjValue(ir.Obj(o)).Name] = true
	})
	if !got["main.b"] {
		t.Errorf("pts(v) = %v, want to contain main.b", got)
	}
}

func TestBreakContinue(t *testing.T) {
	prog, r := analyze(t, `
int main() {
  int a;
  int b;
  int c;
  int *p;
  p = &a;
  while (a) {
    if (b) {
      p = &b;
      break;
    }
    if (c) {
      continue;
    }
    p = &c;
  }
  int *v;
  v = p;
  return 0;
}
`)
	wantObjs(t, prog, r, lastTemp(t, prog, "p"), "main.a", "main.b", "main.c")
}

func TestBreakOutsideLoopRejected(t *testing.T) {
	for _, src := range []string{
		"int main() { break; return 0; }",
		"int main() { continue; return 0; }",
	} {
		if _, err := Compile(src); err == nil || !strings.Contains(err.Error(), "outside a loop") {
			t.Errorf("err = %v for %q", err, src)
		}
	}
}

func TestArraySummaryWeakUpdates(t *testing.T) {
	prog, r := analyze(t, `
int main() {
  int a;
  int b;
  int *arr[4];
  arr[0] = &a;
  arr[1] = &b;
  int *v;
  v = arr[2];
  return 0;
}
`)
	// One summary object: both stores accumulate (weak), any index reads
	// both.
	wantObjs(t, prog, r, lastTemp(t, prog, "elt"), "main.a", "main.b")
}

func TestArrayNeverStronglyUpdated(t *testing.T) {
	prog, r := analyze(t, `
int main() {
  int a;
  int b;
  int *arr[4];
  arr[0] = &a;
  arr[0] = &b;
  int *v;
  v = arr[0];
  return 0;
}
`)
	// Even same-index stores must not kill: the summary object stands
	// for all elements.
	wantObjs(t, prog, r, lastTemp(t, prog, "elt"), "main.a", "main.b")
}

func TestPointerIndexing(t *testing.T) {
	prog, r := analyze(t, `
int main() {
  int a;
  int *pa;
  pa = &a;
  int **pp;
  pp = &pa;
  int *v;
  v = pp[0];
  return 0;
}
`)
	wantObjs(t, prog, r, lastTemp(t, prog, "elt"), "main.a")
}

func TestGlobalArray(t *testing.T) {
	prog, r := analyze(t, `
int x;
int *table[8];

int main() {
  table[3] = &x;
  int *v;
  v = table[5];
  return 0;
}
`)
	wantObjs(t, prog, r, lastTemp(t, prog, "elt"), "x.obj")
}

func TestArrayRestrictions(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"array field", "struct S { int *a[3]; };", "array fields are not supported"},
		{"array param", "int f(int *a[3]) { return 0; }", "aggregate"},
		{"array assign", "int main() { int *a[2]; int *b[2]; a = b; return 0; }", "aggregate"},
		{"bad size", "int main() { int *a[0]; return 0; }", "positive"},
		{"index non-array", "int main() { int a; a[0] = 1; return 0; }", "indexing non-array"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Compile(c.src)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want %q", err, c.want)
			}
		})
	}
}

func TestForHeaderParts(t *testing.T) {
	// Empty header sections, continue targeting the post block.
	prog, r := analyze(t, `
int main() {
  int a;
  int b;
  int *p;
  p = &a;
  int i;
  for (;;) {
    if (a) {
      break;
    }
    p = &b;
  }
  for (i = 0; ; i = i + 1) {
    if (i > 3) {
      break;
    }
    continue;
  }
  int *v;
  v = p;
  return 0;
}
`)
	wantObjs(t, prog, r, lastTemp(t, prog, "p"), "main.a", "main.b")
}
