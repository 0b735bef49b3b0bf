package memssa

import (
	"fmt"
	"testing"

	"vsfs/internal/andersen"
	"vsfs/internal/cfg"
	"vsfs/internal/ir"
	"vsfs/internal/irparse"
	"vsfs/internal/workload"
)

// largestProfiles are skipped under -short.
var largestProfiles = map[string]bool{"bash": true, "lynx": true, "hyriseConsole": true}

// IndirEdge is one def-use chain as a (from, to, object) triple: the
// definition of Obj at From reaches a use at To.
type IndirEdge struct {
	From, To uint32
	Obj      ir.Obj
}

// edges flattens r's successor lists into triples, in slot order, and
// fails t if a chain joins slots of two different objects.
func edges(t testing.TB, r *Result) []IndirEdge {
	t.Helper()
	var out []IndirEdge
	for s := range r.NumSlots() {
		for _, d := range r.Succs.Row(uint32(s)) {
			if r.SlotObj(int(d)) != r.SlotObj(s) {
				t.Fatalf("slot %d of #%d links slot %d of #%d", s, r.SlotObj(s), d, r.SlotObj(int(d)))
			}
			out = append(out, IndirEdge{From: r.SlotNode(s), To: r.SlotNode(int(d)), Obj: r.SlotObj(s)})
		}
	}
	return out
}

// referenceEdges recomputes the indirect def-use edges without rename's
// dominator-tree stacks, collecting them in a map so duplicates
// collapse. A use's reaching definition is the last definition of its
// object earlier in its block, else the last one in the nearest strict
// dominator that has one; a MEMPHI operand is the definition reaching
// the end of a reachable predecessor.
func referenceEdges(prog *ir.Program, r *Result) map[IndirEdge]bool {
	out := map[IndirEdge]bool{}
	for _, f := range prog.Funcs {
		info := cfg.Compute(f)
		// lastDef[b][o] is b's last definition of o.
		lastDef := map[*ir.Block]map[ir.Obj]uint32{}
		for _, b := range info.RPO {
			defs := map[ir.Obj]uint32{}
			for _, in := range b.Instrs {
				if in.Op == ir.MemPhi {
					defs[prog.ObjNum(in.Obj)] = in.Label
					continue
				}
				r.ChiOf(in.Label).ForEach(func(o uint32) { defs[ir.Obj(o)] = in.Label })
			}
			lastDef[b] = defs
		}
		reachingEnd := func(b *ir.Block, o ir.Obj) uint32 {
			for ; b != nil; b = info.Idom(b) {
				if d, ok := lastDef[b][o]; ok {
					return d
				}
			}
			return 0
		}
		for _, b := range info.RPO {
			cur := map[ir.Obj]uint32{}
			reaching := func(o ir.Obj) uint32 {
				if d, ok := cur[o]; ok {
					return d
				}
				return reachingEnd(info.Idom(b), o)
			}
			for _, in := range b.Instrs {
				if in.Op == ir.MemPhi {
					o := prog.ObjNum(in.Obj)
					for _, p := range b.Preds {
						if !info.Reachable(p) {
							continue
						}
						if d := reachingEnd(p, o); d != 0 {
							out[IndirEdge{From: d, To: in.Label, Obj: o}] = true
						}
					}
					cur[o] = in.Label
					continue
				}
				use := func(o uint32) {
					if d := reaching(ir.Obj(o)); d != 0 {
						out[IndirEdge{From: d, To: in.Label, Obj: ir.Obj(o)}] = true
					}
				}
				r.MuOf(in.Label).ForEach(use)
				r.ChiOf(in.Label).ForEach(use)
				r.ChiOf(in.Label).ForEach(func(o uint32) { cur[ir.Obj(o)] = in.Label })
			}
		}
		// Direct calls: actual-in → callee entry, callee exit → actual-out.
		f.ForEachInstr(func(in *ir.Instr) {
			if in.Op != ir.Call || in.Callee == nil {
				return
			}
			entry, exit := in.Callee.EntryInstr.Label, in.Callee.ExitInstr.Label
			r.MuOf(in.Label).ForEach(func(o uint32) {
				if r.FormalIn[in.Callee].Has(o) {
					out[IndirEdge{From: in.Label, To: entry, Obj: ir.Obj(o)}] = true
				}
			})
			if ret := r.CallRets[in]; ret != nil {
				r.ChiOf(ret.Label).ForEach(func(o uint32) {
					if r.FormalOut[in.Callee].Has(o) {
						out[IndirEdge{From: exit, To: ret.Label, Obj: ir.Obj(o)}] = true
					}
				})
			}
		})
	}
	return out
}

// TestEdgesUniqueAndComplete: rename links each chain once by
// construction, so the successor lists repeat no edge; as a set they
// equal the map-deduplicated reference; and every edge's object lies in
// both endpoints' μ∪χ, the domain the slots are numbered over.
func TestEdgesUniqueAndComplete(t *testing.T) {
	check := func(t *testing.T, prog *ir.Program) *Result {
		r := Build(prog, andersen.Analyze(prog))
		all := edges(t, r)
		got := make(map[IndirEdge]bool, len(all))
		inDomain := func(l uint32, o ir.Obj) bool {
			return r.MuOf(l).Has(uint32(o)) || r.ChiOf(l).Has(uint32(o))
		}
		for _, e := range all {
			if got[e] {
				t.Fatalf("duplicate edge %+v", e)
			}
			got[e] = true
			if !inDomain(e.From, e.Obj) || !inDomain(e.To, e.Obj) {
				t.Fatalf("edge %+v: %s not in μ∪χ of both endpoints", e, prog.ObjValue(e.Obj).Name)
			}
		}
		want := referenceEdges(prog, r)
		for e := range want {
			if !got[e] {
				t.Fatalf("edge %+v missing (%d edges, reference %d)", e, len(got), len(want))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%d edges, reference %d", len(got), len(want))
		}
		return r
	}
	// j's MEMPHI for a has three predecessors, two of which (r1, r2)
	// carry the same reaching definition: the entry store.
	t.Run("shared-phi-operand", func(t *testing.T) {
		prog, err := irparse.Parse(`
func main() {
entry:
  p = alloc a 0
  x = alloc b 0
  store p, x
  br l, m
l:
  store p, x
  jmp j
m:
  br r1, r2
r1:
  jmp j
r2:
  jmp j
j:
  v = load p
  ret
}
`)
		if err != nil {
			t.Fatal(err)
		}
		r := check(t, prog)
		if len(r.MemPhis) != 1 {
			t.Fatalf("%d MEMPHIs, want 1", len(r.MemPhis))
		}
		in := 0
		for _, e := range edges(t, r) {
			if e.To == r.MemPhis[0].Label {
				in++
			}
		}
		if in != 2 {
			t.Errorf("MEMPHI has %d operand edges, want 2 (one per distinct reaching store)", in)
		}
	})
	for _, p := range workload.Profiles() {
		t.Run(p.Name, func(t *testing.T) {
			if testing.Short() && largestProfiles[p.Name] {
				t.Skip("largest profile; skipped under -short")
			}
			check(t, p.Build())
		})
	}
	for seed := int64(0); seed < 30; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			check(t, workload.Random(seed, workload.DefaultRandomConfig()))
		})
	}
}

var mssaSink *Result

// BenchmarkMemSSA times memory SSA construction alone. Build rewrites
// the program (MEMPHIs, labels), so each iteration stages a fresh one
// with the clock stopped.
func BenchmarkMemSSA(b *testing.B) {
	for _, name := range []string{"nano", "bash", "i3", "lynx", "hyriseConsole"} {
		b.Run(name, func(b *testing.B) {
			p := workload.ProfileByName(name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				prog := p.Build()
				aux := andersen.Analyze(prog)
				b.StartTimer()
				mssaSink = Build(prog, aux)
			}
		})
	}
}
