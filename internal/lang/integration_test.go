package lang

import (
	"testing"

	"vsfs/internal/andersen"
	"vsfs/internal/core"
	"vsfs/internal/ir"
	"vsfs/internal/memssa"
	"vsfs/internal/sfs"
	"vsfs/internal/svfg"
)

// Realistic end-to-end programs: each is compiled, solved with both
// flow-sensitive analyses, checked for SFS ≡ VSFS, and probed for
// specific points-to facts.

const linkedListC = `
struct Node {
  int *value;
  struct Node *next;
};

struct Node *push(struct Node *head, int *v) {
  struct Node *n;
  n = malloc();
  n->value = v;
  n->next = head;
  return n;
}

int *peek(struct Node *head) {
  return head->value;
}

struct Node *pop(struct Node *head) {
  return head->next;
}

int main() {
  int a;
  int b;
  int c;
  struct Node *stack;
  stack = null;
  stack = push(stack, &a);
  stack = push(stack, &b);
  stack = push(stack, &c);
  int *top;
  top = peek(stack);
  stack = pop(stack);
  stack = pop(stack);
  int *bottom;
  bottom = peek(stack);
  return 0;
}
`

const hashTableC = `
struct Entry {
  int *key;
  int *val;
  struct Entry *chain;
};

struct Entry *buckets[16];

void put(int idx, int *k, int *v) {
  struct Entry *e;
  e = malloc();
  e->key = k;
  e->val = v;
  e->chain = buckets[idx];
  buckets[idx] = e;
  return;
}

int *get(int idx, int *k) {
  struct Entry *e;
  e = buckets[idx];
  while (e != null) {
    if (e->key == k) {
      return e->val;
    }
    e = e->chain;
  }
  return null;
}

int main() {
  int k1; int v1;
  int k2; int v2;
  put(0, &k1, &v1);
  put(5, &k2, &v2);
  int *r;
  r = get(0, &k1);
  return 0;
}
`

const stateMachineC = `
int sIdle;
int sRun;
int sStop;

int *onIdle() { return &sRun; }
int *onRun() { return &sStop; }
int *onStop() { return &sIdle; }

int main() {
  int i;
  int *state;
  state = &sIdle;
  for (i = 0; i < 10; i = i + 1) {
    int *(*h)();
    if (state == &sIdle) {
      h = onIdle;
    } else if (state == &sRun) {
      h = onRun;
    } else {
      h = onStop;
    }
    state = h();
  }
  return 0;
}
`

const interpreterC = `
struct Value {
  int *payload;
  struct Value *link;
};

struct VM {
  struct Value *stack;
  struct Value *env;
};

struct VM *newVM() {
  struct VM *vm;
  vm = malloc();
  vm->stack = null;
  vm->env = null;
  return vm;
}

void pushVal(struct VM *vm, int *p) {
  struct Value *v;
  v = malloc();
  v->payload = p;
  v->link = vm->stack;
  vm->stack = v;
  return;
}

int *popVal(struct VM *vm) {
  struct Value *v;
  v = vm->stack;
  vm->stack = v->link;
  return v->payload;
}

void save(struct VM *vm) {
  struct Value *e;
  e = malloc();
  e->payload = popVal(vm);
  e->link = vm->env;
  vm->env = e;
  return;
}

int main() {
  int lit1;
  int lit2;
  struct VM *vm;
  vm = newVM();
  pushVal(vm, &lit1);
  pushVal(vm, &lit2);
  save(vm);
  int *top;
  top = popVal(vm);
  struct Value *saved;
  saved = vm->env;
  int *got;
  got = saved->payload;
  return 0;
}
`

func solveBoth(t *testing.T, src string) (*ir.Program, *sfs.Result, *core.Result) {
	t.Helper()
	prog, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	aux := andersen.Analyze(prog)
	mssa := memssa.Build(prog, aux)
	g := svfg.Build(prog, aux, mssa)
	sr := sfs.Solve(g.Clone())
	vr := core.Solve(g.Clone())
	for v := ir.ID(1); int(v) < prog.NumValues(); v++ {
		if prog.IsPointer(v) && !sr.PointsTo(v).Equal(vr.PointsTo(v)) {
			t.Fatalf("SFS ≠ VSFS at %s", prog.NameOf(v))
		}
	}
	return prog, sr, vr
}

func ptsNames(prog *ir.Program, r *core.Result, v ir.ID) map[string]bool {
	out := map[string]bool{}
	r.PointsTo(v).ForEach(func(o uint32) { out[prog.ObjValue(ir.Obj(o)).Name] = true })
	return out
}

func TestLinkedList(t *testing.T) {
	prog, _, vr := solveBoth(t, linkedListC)
	// All three pushed addresses flow to the peeked value (one abstract
	// node summarises the list cells).
	top := ptsNames(prog, vr, lastTemp(t, prog, "value"))
	for _, want := range []string{"main.a", "main.b", "main.c"} {
		if !top[want] {
			t.Errorf("peek result missing %s: %v", want, top)
		}
	}
}

func TestHashTable(t *testing.T) {
	prog, _, vr := solveBoth(t, hashTableC)
	// get's return chains through e->val: both values reachable (the
	// bucket array is one summary object).
	got := ptsNames(prog, vr, lastTemp(t, prog, "val"))
	if !got["main.v1"] || !got["main.v2"] {
		t.Errorf("hash get = %v, want both values", got)
	}
	// Keys never flow into values.
	if got["main.k1"] || got["main.k2"] {
		t.Errorf("hash get leaked keys: %v", got)
	}
}

func TestStateMachine(t *testing.T) {
	prog, _, vr := solveBoth(t, stateMachineC)
	// The handler pointer resolves to all three handlers across the loop.
	h := ptsNames(prog, vr, lastTemp(t, prog, "h"))
	for _, want := range []string{"&onIdle", "&onRun", "&onStop"} {
		if !h[want] {
			t.Errorf("handler pts = %v, want %s", h, want)
		}
	}
	// All three states reach the state variable.
	st := ptsNames(prog, vr, lastTemp(t, prog, "state"))
	for _, want := range []string{"sIdle.obj", "sRun.obj", "sStop.obj"} {
		if !st[want] {
			t.Errorf("state pts = %v, want %s", st, want)
		}
	}
	// Indirect calls resolve to exactly the three handlers.
	var icall *ir.Instr
	prog.FuncByName("main").ForEachInstr(func(in *ir.Instr) {
		if in.IsIndirectCall() {
			icall = in
		}
	})
	if icall == nil {
		t.Fatal("no indirect call")
	}
	if callees := vr.CalleesOf(icall); len(callees) != 3 {
		t.Errorf("callees = %v, want 3", callees)
	}
}

func TestInterpreter(t *testing.T) {
	prog, _, vr := solveBoth(t, interpreterC)
	// Literal addresses flow through push/pop and the env save.
	got := ptsNames(prog, vr, lastTemp(t, prog, "payload"))
	if !got["main.lit1"] || !got["main.lit2"] {
		t.Errorf("payload pts = %v, want both literals", got)
	}
}
