package memssa

import (
	"fmt"
	"testing"

	"vsfs/internal/andersen"
	"vsfs/internal/ir"
	"vsfs/internal/irparse"
	"vsfs/internal/workload"
)

func build(t *testing.T, src string) (*ir.Program, *Result) {
	t.Helper()
	prog, err := irparse.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	aux := andersen.Analyze(prog)
	return prog, Build(prog, aux)
}

// findInstr returns the nth instruction with the given op.
func findInstr(prog *ir.Program, op ir.Op, n int) *ir.Instr {
	for _, in := range prog.Instrs {
		if in != nil && in.Op == op {
			if n == 0 {
				return in
			}
			n--
		}
	}
	return nil
}

func objByName(prog *ir.Program, name string) ir.Obj {
	for o := range ir.Obj(prog.NumObjects()) {
		if prog.ObjValue(o).Name == name {
			return o
		}
	}
	panic("no object " + name)
}

func hasEdge(r *Result, from, to uint32, obj ir.Obj) bool {
	s, ok := r.Slot(from, obj)
	if !ok {
		return false
	}
	for _, d := range r.Succs.Row(uint32(s)) {
		if r.SlotNode(int(d)) == to {
			return true
		}
	}
	return false
}

func TestFigure1ChiMuAndEdges(t *testing.T) {
	// Figure 1's shape: store then load of the same object.
	prog, r := build(t, `
func main() {
entry:
  p = alloc a 0
  x = alloc b 0
  store p, x
  y = load p
  ret
}
`)
	a := objByName(prog, "a")
	store := findInstr(prog, ir.Store, 0)
	load := findInstr(prog, ir.Load, 0)
	if !r.ChiOf(store.Label).Has(uint32(a)) {
		t.Errorf("store not annotated with χ(a); chi = %v", r.ChiOf(store.Label))
	}
	if !r.MuOf(load.Label).Has(uint32(a)) {
		t.Errorf("load not annotated with μ(a); mu = %v", r.MuOf(load.Label))
	}
	if !hasEdge(r, store.Label, load.Label, a) {
		t.Errorf("missing indirect edge store --a--> load; edges = %v", edges(t, r))
	}
	if len(r.MemPhis) != 0 {
		t.Errorf("straight-line code got %d memphis", len(r.MemPhis))
	}
}

func TestMemPhiAtJoin(t *testing.T) {
	prog, r := build(t, `
func main() {
entry:
  p = alloc a 0
  x = alloc b 0
  y = alloc c 0
  br left, right
left:
  store p, x
  jmp join
right:
  store p, y
  jmp join
join:
  v = load p
  ret
}
`)
	a := objByName(prog, "a")
	if len(r.MemPhis) != 1 {
		t.Fatalf("memphis = %d, want 1", len(r.MemPhis))
	}
	phi := r.MemPhis[0]
	if prog.ObjNum(phi.Obj) != a {
		t.Errorf("memphi object = %s, want a", prog.NameOf(phi.Obj))
	}
	if phi.Block.Name != "join" {
		t.Errorf("memphi in block %q, want join", phi.Block.Name)
	}
	// Both stores feed the phi; the phi feeds the load.
	s1 := findInstr(prog, ir.Store, 0)
	s2 := findInstr(prog, ir.Store, 1)
	load := findInstr(prog, ir.Load, 0)
	if !hasEdge(r, s1.Label, phi.Label, a) || !hasEdge(r, s2.Label, phi.Label, a) {
		t.Errorf("stores do not feed memphi: %v", edges(t, r))
	}
	if !hasEdge(r, phi.Label, load.Label, a) {
		t.Errorf("memphi does not feed load: %v", edges(t, r))
	}
	if hasEdge(r, s1.Label, load.Label, a) {
		t.Errorf("store 1 directly feeds load despite memphi")
	}
}

func TestStoreWeakUpdateConsumesPreviousDef(t *testing.T) {
	prog, r := build(t, `
func main() {
entry:
  p = alloc a 0
  q = phi(p, p)
  x = alloc b 0
  y = alloc c 0
  store p, x
  store q, y
  ret
}
`)
	a := objByName(prog, "a")
	s1 := findInstr(prog, ir.Store, 0)
	s2 := findInstr(prog, ir.Store, 1)
	if !hasEdge(r, s1.Label, s2.Label, a) {
		t.Errorf("second store does not consume first store's def of a: %v", edges(t, r))
	}
}

func TestLoopMemPhi(t *testing.T) {
	prog, r := build(t, `
func main() {
entry:
  p = alloc a 0
  x = alloc b 0
  jmp header
header:
  br body, exit
body:
  store p, x
  jmp header
exit:
  v = load p
  ret
}
`)
	a := objByName(prog, "a")
	if len(r.MemPhis) != 1 {
		t.Fatalf("memphis = %d, want 1 at loop header", len(r.MemPhis))
	}
	phi := r.MemPhis[0]
	if phi.Block.Name != "header" {
		t.Errorf("memphi in %q, want header", phi.Block.Name)
	}
	store := findInstr(prog, ir.Store, 0)
	load := findInstr(prog, ir.Load, 0)
	if !hasEdge(r, store.Label, phi.Label, a) {
		t.Error("store does not feed loop-header memphi")
	}
	if !hasEdge(r, phi.Label, load.Label, a) {
		t.Error("memphi does not feed post-loop load")
	}
	if !hasEdge(r, phi.Label, store.Label, a) {
		t.Error("memphi does not feed the store's weak update")
	}
}

func TestInterproceduralDirectCall(t *testing.T) {
	prog, r := build(t, `
func setter(q) {
entry:
  x = alloc tgt 0
  store q, x
  ret
}
func main() {
entry:
  p = alloc a 0
  call setter(p)
  v = load p
  ret
}
`)
	a := objByName(prog, "a")
	setter := prog.FuncByName("setter")

	if !r.FormalOut[setter].Has(uint32(a)) {
		t.Fatalf("FormalOut(setter) = %v, want to contain a", r.FormalOut[setter])
	}
	if !r.FormalIn[setter].Has(uint32(a)) {
		t.Errorf("FormalIn(setter) = %v, want to contain a (mod ⊆ in)", r.FormalIn[setter])
	}

	call := findInstr(prog, ir.Call, 0)
	callRet := r.CallRets[call]
	if callRet == nil {
		t.Fatal("no CallRet for modifying call")
	}
	if callRet.Block != call.Block {
		t.Error("CallRet not in the call's block")
	}

	// Chain: entry-of-main χ(a)? No: a is defined only in main before the
	// call; call sends def to setter entry; setter's store defines a;
	// setter exit μ's a; exit feeds CallRet; CallRet feeds load.
	entry := setter.EntryInstr.Label
	exit := setter.ExitInstr.Label
	if !hasEdge(r, call.Label, entry, a) {
		t.Errorf("call does not send a into setter entry: %v", edges(t, r))
	}
	store := findInstr(prog, ir.Store, 0)
	if !hasEdge(r, setter.EntryInstr.Label, store.Label, a) {
		t.Errorf("setter entry def does not reach store weak update")
	}
	if !hasEdge(r, store.Label, exit, a) {
		t.Errorf("store does not reach setter exit μ")
	}
	if !hasEdge(r, exit, callRet.Label, a) {
		t.Errorf("setter exit does not feed CallRet")
	}
	load := findInstr(prog, ir.Load, 0)
	if !hasEdge(r, callRet.Label, load.Label, a) {
		t.Errorf("CallRet does not feed the load")
	}
	// The value sent into the callee must come from before the call, not
	// from the CallRet.
	if hasEdge(r, callRet.Label, entry, a) {
		t.Error("CallRet feeds callee entry (actual-out leaked into actual-in)")
	}
}

func TestTransitiveModRef(t *testing.T) {
	prog, r := build(t, `
func inner(q) {
entry:
  x = alloc tgt 0
  store q, x
  ret
}
func outer(w) {
entry:
  call inner(w)
  ret
}
func main() {
entry:
  p = alloc a 0
  call outer(p)
  v = load p
  ret
}
`)
	a := objByName(prog, "a")
	outer := prog.FuncByName("outer")
	if !r.FormalOut[outer].Has(uint32(a)) {
		t.Errorf("FormalOut(outer) = %v missing a (transitive mod)", r.FormalOut[outer])
	}
	// Full chain main → outer → inner → back works: load sees tgt via
	// CallRet chain. Just check the return chain into main.
	var mainCall *ir.Instr
	prog.FuncByName("main").ForEachInstr(func(in *ir.Instr) {
		if in.Op == ir.Call {
			mainCall = in
		}
	})
	ret := r.CallRets[mainCall]
	if ret == nil {
		t.Fatal("main's call has no CallRet")
	}
	if !hasEdge(r, outer.ExitInstr.Label, ret.Label, a) {
		t.Error("outer exit does not feed main's CallRet")
	}
}

func TestEntryNormalization(t *testing.T) {
	// A back edge into the first block forces entry splitting.
	prog, r := build(t, `
func main() {
entry:
  p = alloc a 0
  x = alloc b 0
  store p, x
  br entry, out
out:
  v = load p
  ret
}
`)
	f := prog.FuncByName("main")
	if len(f.Entry.Preds) != 0 {
		t.Fatalf("entry still has %d preds after normalization", len(f.Entry.Preds))
	}
	if f.Entry.Instrs[0] != f.EntryInstr {
		t.Error("FunEntry not in new entry block")
	}
	// The loop on the old entry block needs a memphi for a.
	a := objByName(prog, "a")
	found := false
	for _, phi := range r.MemPhis {
		if prog.ObjNum(phi.Obj) == a {
			found = true
		}
	}
	if !found {
		t.Errorf("no memphi for a despite loop; memphis = %v", r.MemPhis)
	}
}

func TestIndirectCallNotWiredAtBuild(t *testing.T) {
	prog, r := build(t, `
func setter(q) {
entry:
  x = alloc tgt 0
  store q, x
  ret
}
func main() {
entry:
  p = alloc a 0
  fp = funcaddr setter
  calli fp(p)
  v = load p
  ret
}
`)
	setter := prog.FuncByName("setter")
	call := findInstr(prog, ir.Call, 0)
	a := objByName(prog, "a")
	// μ/χ annotated from aux targets...
	if !r.MuOf(call.Label).Has(uint32(a)) {
		t.Error("indirect call not annotated with μ(a)")
	}
	ret := r.CallRets[call]
	if ret == nil {
		t.Fatal("indirect call without CallRet despite aux targets")
	}
	// ...but interprocedural edges are left to on-the-fly resolution.
	if hasEdge(r, call.Label, setter.EntryInstr.Label, a) {
		t.Error("indirect call wired at build time")
	}
	if hasEdge(r, setter.ExitInstr.Label, ret.Label, a) {
		t.Error("indirect return wired at build time")
	}
}

// Every def-use edge must be object-consistent: the source defines the
// object (χ) and the target uses or redefines it (μ, χ, or memphi
// operand); checked over random programs.
func TestQuickEdgeConsistency(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			prog := workload.Random(seed, workload.DefaultRandomConfig())
			aux := andersen.Analyze(prog)
			r := Build(prog, aux)
			for _, e := range edges(t, r) {
				from := prog.Instrs[e.From]
				to := prog.Instrs[e.To]
				if from == nil || to == nil {
					t.Fatalf("edge with dangling label: %+v", e)
				}
				// Sources define the object, except interprocedural
				// sends (call → entry) and returns (exit → callret).
				srcOK := r.ChiOf(e.From).Has(uint32(e.Obj)) ||
					from.Op == ir.Call || from.Op == ir.FunExit
				if !srcOK {
					t.Errorf("edge source %v does not define %s", from.Op, prog.ObjValue(e.Obj).Name)
				}
				dstOK := r.MuOf(e.To).Has(uint32(e.Obj)) ||
					r.ChiOf(e.To).Has(uint32(e.Obj)) ||
					(to.Op == ir.MemPhi && prog.ObjNum(to.Obj) == e.Obj) ||
					to.Op == ir.FunEntry
				if !dstOK {
					t.Errorf("edge target %v does not use %s", to.Op, prog.ObjValue(e.Obj).Name)
				}
			}
		})
	}
}

func TestLabelsDenseAfterBuild(t *testing.T) {
	prog, _ := build(t, `
func main() {
entry:
  p = alloc a 0
  x = alloc b 0
  br l, r
l:
  store p, x
  jmp j
r:
  store p, x2
  jmp j
j:
  v = load p
  ret
}
`)
	for l, in := range prog.Instrs {
		if l == 0 {
			continue
		}
		if in == nil || int(in.Label) != l {
			t.Fatalf("labels not dense after memssa (slot %d)", l)
		}
	}
}
