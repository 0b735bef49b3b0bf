package checker

import (
	"strings"
	"testing"
)

func TestUseAfterFree(t *testing.T) {
	prog, facts := solve(t, `
int main() {
  int *p;
  p = malloc();
  *p = 1;
  free(p);
  *p = 2;
  return 0;
}
`)
	findings := UseAfterFrees(prog, facts)
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want exactly the post-free store", findings)
	}
	f := findings[0]
	if f.Kind != UseAfterFree || f.Func != "main" || !strings.Contains(f.Message, "freed") {
		t.Errorf("finding = %v", f)
	}
	if f.Pos.Line != 7 {
		t.Errorf("finding at %v, want line 7 (*p = 2)", f.Pos)
	}
	if !strings.Contains(f.String(), "7:") {
		t.Errorf("String() = %q, want source position", f.String())
	}
}

func TestUseAfterFreeCleanAfterRealloc(t *testing.T) {
	prog, facts := solve(t, `
int main() {
  int *p;
  p = malloc();
  free(p);
  p = malloc();
  *p = 2;
  return 0;
}
`)
	// Each malloc is a distinct allocation site; the second deref only
	// touches the fresh one.
	for _, f := range UseAfterFrees(prog, facts) {
		if f.Pos.Line == 7 {
			t.Errorf("fresh allocation reported as UAF: %v", f)
		}
	}
}

func TestUseAfterFreeDanglingValue(t *testing.T) {
	prog, facts := solve(t, `
int main() {
  int x;
  int **q;
  q = malloc();
  *q = &x;
  free(q);
  int *p;
  p = *q;
  *p = 1;
  return 0;
}
`)
	findings := UseAfterFrees(prog, facts)
	var loadFromFreed, derefDangling bool
	for _, f := range findings {
		if f.Pos.Line == 9 && strings.Contains(f.Message, "after it was freed") {
			loadFromFreed = true
		}
		if f.Pos.Line == 10 && strings.Contains(f.Message, "loaded from freed memory") {
			derefDangling = true
		}
	}
	if !loadFromFreed || !derefDangling {
		t.Errorf("findings = %v, want load-from-freed at line 9 and dangling-value deref at line 10", findings)
	}
}

func TestDoubleFree(t *testing.T) {
	prog, facts := solve(t, `
int main() {
  int *p;
  p = malloc();
  free(p);
  free(p);
  return 0;
}
`)
	findings := DoubleFrees(prog, facts)
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want exactly the second free", findings)
	}
	f := findings[0]
	if f.Kind != DoubleFree || f.Pos.Line != 6 {
		t.Errorf("finding = %v, want double-free at line 6", f)
	}
}

func TestDoubleFreeBranchMerge(t *testing.T) {
	prog, facts := solve(t, `
int main(int c) {
  int *p;
  p = malloc();
  if (c) {
    free(p);
  }
  free(p);
  return 0;
}
`)
	findings := DoubleFrees(prog, facts)
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want the merged second free only", findings)
	}
	if findings[0].Pos.Line != 8 {
		t.Errorf("finding = %v, want line 8", findings[0])
	}
}

func TestFreeCleanProgram(t *testing.T) {
	prog, facts := solve(t, `
int main() {
  int *p;
  p = malloc();
  *p = 1;
  free(p);
  return 0;
}
`)
	if f := UseAfterFrees(prog, facts); len(f) != 0 {
		t.Errorf("use-after-frees = %v", f)
	}
	if f := DoubleFrees(prog, facts); len(f) != 0 {
		t.Errorf("double-frees = %v", f)
	}
}

func TestFreeCheckersSkipFreeLessPrograms(t *testing.T) {
	prog, facts := solve(t, `int main() { int *p; p = malloc(); return 0; }`)
	if f := UseAfterFrees(prog, facts); f != nil {
		t.Errorf("use-after-frees = %v, want nil fast path", f)
	}
	if f := DoubleFrees(prog, facts); f != nil {
		t.Errorf("double-frees = %v, want nil fast path", f)
	}
}

func TestMemoryLeaks(t *testing.T) {
	prog, facts := solve(t, `
int *keep;

int *make() {
  int *p;
  p = malloc();
  return p;
}
int lose() {
  int *q;
  q = malloc();
  return 0;
}
int freeIt(int *x) {
  free(x);
  return 0;
}
int tidy() {
  int *r;
  r = malloc();
  freeIt(r);
  return 0;
}
int main() {
  keep = make();
  lose();
  tidy();
  return 0;
}
`)
	findings := MemoryLeaks(prog, facts)
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want exactly the allocation in lose", findings)
	}
	f := findings[0]
	if f.Kind != MemoryLeak || f.Func != "lose" || f.Pos.Line != 11 {
		t.Errorf("finding = %v, want memory-leak in lose at line 11", f)
	}
}

func TestMemoryLeaksMainLocalsAreRoots(t *testing.T) {
	prog, facts := solve(t, `
int main() {
  int *p;
  p = malloc();
  *p = 1;
  return 0;
}
`)
	// p is a live top-level pointer of main at exit: not a leak.
	if f := MemoryLeaks(prog, facts); len(f) != 0 {
		t.Errorf("findings = %v, want none", f)
	}
}
