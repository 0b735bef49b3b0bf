package andersen

import (
	"fmt"
	"sync"
	"testing"

	"vsfs/internal/bitset"
	"vsfs/internal/ir"
	"vsfs/internal/irparse"
	"vsfs/internal/workload"
)

// pointsToNames returns the object names in pts(v) for readable asserts.
func pointsToNames(r *Result, prog *ir.Program, v ir.ID) map[string]bool {
	out := map[string]bool{}
	r.PointsTo(v).ForEach(func(o uint32) { out[prog.ObjValue(ir.Obj(o)).Name] = true })
	return out
}

func lookupVar(t *testing.T, prog *ir.Program, name string) ir.ID {
	t.Helper()
	for id := ir.ID(1); int(id) < prog.NumValues(); id++ {
		if prog.Value(id).Name == name && prog.IsPointer(id) {
			return id
		}
	}
	t.Fatalf("no pointer named %q", name)
	return ir.None
}

func analyzeSrc(t *testing.T, src string) (*ir.Program, *Result) {
	t.Helper()
	prog, err := irparse.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog, Analyze(prog)
}

func TestBasicAllocCopy(t *testing.T) {
	prog, res := analyzeSrc(t, `
func main() {
entry:
  p = alloc a 0
  q = copy p
  s = phi(p, q)
  ret
}
`)
	for _, v := range []string{"p", "q", "s"} {
		got := pointsToNames(res, prog, lookupVar(t, prog, v))
		if len(got) != 1 || !got["a"] {
			t.Errorf("pts(%s) = %v, want {a}", v, got)
		}
	}
}

func TestStoreLoad(t *testing.T) {
	prog, res := analyzeSrc(t, `
func main() {
entry:
  p = alloc a 0
  x = alloc b 0
  store p, x
  y = load p
  ret
}
`)
	got := pointsToNames(res, prog, lookupVar(t, prog, "y"))
	if len(got) != 1 || !got["b"] {
		t.Errorf("pts(y) = %v, want {b}", got)
	}
	// The object a itself points to b.
	var aObj ir.ID
	for id := ir.ID(1); int(id) < prog.NumValues(); id++ {
		if prog.Value(id).Name == "a" && prog.IsObject(id) {
			aObj = id
		}
	}
	gotA := pointsToNames(res, prog, aObj)
	if len(gotA) != 1 || !gotA["b"] {
		t.Errorf("pts(a) = %v, want {b}", gotA)
	}
}

func TestFieldSensitivity(t *testing.T) {
	prog, res := analyzeSrc(t, `
func main() {
entry:
  s = alloc agg 2
  x = alloc tgt 0
  f1 = field s, 1
  store f1, x
  f1b = field s, 1
  v1 = load f1b
  f0 = field s, 0
  v0 = load f0
  ret
}
`)
	got1 := pointsToNames(res, prog, lookupVar(t, prog, "v1"))
	if len(got1) != 1 || !got1["tgt"] {
		t.Errorf("pts(v1) = %v, want {tgt}", got1)
	}
	got0 := pointsToNames(res, prog, lookupVar(t, prog, "v0"))
	if len(got0) != 0 {
		t.Errorf("pts(v0) = %v, want {} (field-sensitive)", got0)
	}
	// field s, 0 is the base object itself.
	f0 := lookupVar(t, prog, "f0")
	gotF0 := pointsToNames(res, prog, f0)
	if len(gotF0) != 1 || !gotF0["agg"] {
		t.Errorf("pts(f0) = %v, want {agg}", gotF0)
	}
}

func TestDirectCall(t *testing.T) {
	prog, res := analyzeSrc(t, `
func id(x) {
entry:
  r = copy x
  ret r
}
func main() {
entry:
  p = alloc a 0
  q = call id(p)
  ret
}
`)
	got := pointsToNames(res, prog, lookupVar(t, prog, "q"))
	if len(got) != 1 || !got["a"] {
		t.Errorf("pts(q) = %v, want {a}", got)
	}
}

func TestIndirectCallResolution(t *testing.T) {
	prog, res := analyzeSrc(t, `
func id(x) {
entry:
  r = copy x
  ret r
}
func other(y) {
entry:
  ret y
}
func main() {
entry:
  p = alloc a 0
  fp = funcaddr id
  q = calli fp(p)
  ret
}
`)
	got := pointsToNames(res, prog, lookupVar(t, prog, "q"))
	if len(got) != 1 || !got["a"] {
		t.Errorf("pts(q) = %v, want {a}", got)
	}
	// Call graph: the calli resolves to id only.
	var call *ir.Instr
	prog.FuncByName("main").ForEachInstr(func(in *ir.Instr) {
		if in.IsIndirectCall() {
			call = in
		}
	})
	callees := res.CalleesOf(call)
	if len(callees) != 1 || callees[0].Name != "id" {
		t.Errorf("CalleesOf = %v, want [id]", callees)
	}
}

func TestIndirectCallTwoTargets(t *testing.T) {
	prog, res := analyzeSrc(t, `
func mk1() {
entry:
  a1 = alloc o1 0
  ret a1
}
func mk2() {
entry:
  a2 = alloc o2 0
  ret a2
}
func main() {
entry:
  fp1 = funcaddr mk1
  fp2 = funcaddr mk2
  fp = phi(fp1, fp2)
  q = calli fp()
  ret
}
`)
	got := pointsToNames(res, prog, lookupVar(t, prog, "q"))
	if len(got) != 2 || !got["o1"] || !got["o2"] {
		t.Errorf("pts(q) = %v, want {o1, o2}", got)
	}
}

func TestCallThroughNonFunctionIsIgnored(t *testing.T) {
	prog, res := analyzeSrc(t, `
func main() {
entry:
  p = alloc a 0
  q = calli p(p)
  ret
}
`)
	got := pointsToNames(res, prog, lookupVar(t, prog, "q"))
	if len(got) != 0 {
		t.Errorf("pts(q) = %v, want {}", got)
	}
}

func TestRecursionThroughMemory(t *testing.T) {
	// A store/load cycle: *p = p effectively, through two pointers.
	prog, res := analyzeSrc(t, `
func main() {
entry:
  p = alloc a 0
  q = copy p
  store p, q
  v = load q
  w = load v
  ret
}
`)
	for _, name := range []string{"v", "w"} {
		got := pointsToNames(res, prog, lookupVar(t, prog, name))
		if len(got) != 1 || !got["a"] {
			t.Errorf("pts(%s) = %v, want {a}", name, got)
		}
	}
}

func TestMutualRecursion(t *testing.T) {
	prog, res := analyzeSrc(t, `
func even(x) {
entry:
  r = call odd(x)
  ret r
}
func odd(y) {
entry:
  r2 = call even(y)
  br a, b
a:
  ret r2
b:
  ret y
}
func main() {
entry:
  p = alloc obj 0
  q = call even(p)
  ret
}
`)
	got := pointsToNames(res, prog, lookupVar(t, prog, "q"))
	if len(got) != 1 || !got["obj"] {
		t.Errorf("pts(q) = %v, want {obj}", got)
	}
	if res.Stats.SCCCollapses == 0 {
		t.Log("note: no SCCs collapsed (cycle may be under interval threshold)")
	}
}

func TestGlobalFlow(t *testing.T) {
	prog, res := analyzeSrc(t, `
global g 0
func setter() {
entry:
  x = alloc secret 0
  store g, x
  ret
}
func main() {
entry:
  call setter()
  v = load g
  ret
}
`)
	got := pointsToNames(res, prog, lookupVar(t, prog, "v"))
	if len(got) != 1 || !got["secret"] {
		t.Errorf("pts(v) = %v, want {secret}", got)
	}
}

func TestArgCountMismatch(t *testing.T) {
	// Passing more args than params must not crash or mis-wire.
	prog, res := analyzeSrc(t, `
func one(x) {
entry:
  ret x
}
func main() {
entry:
  p = alloc a 0
  q = alloc b 0
  r = call one(p, q)
  ret
}
`)
	got := pointsToNames(res, prog, lookupVar(t, prog, "r"))
	if len(got) != 1 || !got["a"] {
		t.Errorf("pts(r) = %v, want {a}", got)
	}
}

// naiveSolve is an obviously-correct reference: iterate all constraints
// to fixpoint with no difference propagation, no cycle elimination. Sets
// hold object numbers; an object's contents live under its value ID.
func naiveSolve(prog *ir.Program) map[ir.ID]*bitset.Sparse {
	pts := map[ir.ID]*bitset.Sparse{}
	get := func(v ir.ID) *bitset.Sparse {
		if pts[v] == nil {
			pts[v] = bitset.New()
		}
		return pts[v]
	}
	for changed := true; changed; {
		changed = false
		mark := func(c bool) {
			if c {
				changed = true
			}
		}
		for _, f := range prog.Funcs {
			f.ForEachInstr(func(in *ir.Instr) {
				switch in.Op {
				case ir.Alloc:
					mark(get(in.Def).Set(uint32(prog.ObjNum(in.Obj))))
				case ir.Copy, ir.Phi:
					for _, u := range in.Uses {
						mark(get(in.Def).UnionWith(get(u)))
					}
				case ir.Field:
					get(in.Uses[0]).Clone().ForEach(func(o uint32) {
						if prog.ObjValue(ir.Obj(o)).ObjKind == ir.FuncObj {
							return
						}
						fo := prog.FieldObj(prog.ObjID(ir.Obj(o)), in.Off)
						mark(get(in.Def).Set(uint32(prog.ObjNum(fo))))
					})
				case ir.Load:
					get(in.Uses[0]).Clone().ForEach(func(o uint32) {
						mark(get(in.Def).UnionWith(get(prog.ObjID(ir.Obj(o)))))
					})
				case ir.Store:
					get(in.Uses[0]).Clone().ForEach(func(o uint32) {
						mark(get(prog.ObjID(ir.Obj(o))).UnionWith(get(in.Uses[1])))
					})
				case ir.Call:
					var callees []*ir.Function
					if in.Callee != nil {
						callees = []*ir.Function{in.Callee}
					} else {
						get(in.CalleePtr()).ForEach(func(o uint32) {
							if v := prog.ObjValue(ir.Obj(o)); v.ObjKind == ir.FuncObj {
								callees = append(callees, v.Func)
							}
						})
					}
					args := in.CallArgs()
					for _, callee := range callees {
						for i, a := range args {
							if i >= len(callee.Params) {
								break
							}
							mark(get(callee.Params[i]).UnionWith(get(a)))
						}
						if in.Def != ir.None && callee.Ret != ir.None {
							mark(get(in.Def).UnionWith(get(callee.Ret)))
						}
					}
				}
			})
		}
	}
	return pts
}

// TestAgainstNaiveReference cross-checks the optimised solver against the
// naive one on a spread of random programs.
func TestAgainstNaiveReference(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := workload.DefaultRandomConfig()
			prog := workload.Random(seed, cfg)
			res := Analyze(prog)
			want := naiveSolve(prog)
			n := prog.NumValues()
			for id := ir.ID(1); int(id) < n; id++ {
				got := res.PointsTo(id)
				w := want[id]
				if w == nil {
					w = bitset.New()
				}
				if !got.Equal(w) {
					t.Fatalf("pts(%s): solver %v, naive %v", prog.NameOf(id), got, w)
				}
			}
		})
	}
}

func TestStatsPopulated(t *testing.T) {
	prog := workload.Random(42, workload.DefaultRandomConfig())
	res := Analyze(prog)
	if res.Stats.Pops == 0 || res.Stats.FinalNodes == 0 {
		t.Errorf("stats look empty: %+v", res.Stats)
	}
}

// TestConcurrentReads reads a result whose copy graph had a cycle
// collapsed from several goroutines at once. Queries must not write to
// the result (run under -race).
func TestConcurrentReads(t *testing.T) {
	prog, res := analyzeSrc(t, `
func main() {
entry:
  a = alloc o 0
  jmp loop
loop:
  p = phi(a, q)
  q = copy p
  br loop, exit
exit:
  ret
}
`)
	if res.Stats.SCCCollapses == 0 {
		t.Fatal("no SCC collapsed; the test needs a merged node")
	}
	var vars []ir.ID
	for _, name := range []string{"a", "p", "q"} {
		vars = append(vars, lookupVar(t, prog, name))
	}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 100 {
				for _, v := range vars {
					if res.PointsTo(v).Len() != 1 {
						t.Errorf("pts(%s) is not {o}", prog.NameOf(v))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
