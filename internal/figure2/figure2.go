// Package figure2 hand-builds the paper's Figure 2 SVFG fragment, for
// the tests, the benchmark and the example that reproduce its numbers.
package figure2

import (
	"vsfs/internal/andersen"
	"vsfs/internal/bitset"
	"vsfs/internal/ir"
	"vsfs/internal/irparse"
	"vsfs/internal/memssa"
	"vsfs/internal/svfg"
)

// Build returns the fragment: two stores (ℓ1, ℓ2) and three loads (ℓ3,
// ℓ4, ℓ5) of one heap object a, so updates are weak, with exactly the
// figure's indirect edges
//
//	ℓ1 → ℓ2, ℓ1 → ℓ3, ℓ1 → ℓ4, ℓ1 → ℓ5, ℓ2 → ℓ4, ℓ2 → ℓ5
//
// The paper extracted it from GNU coreutils' true. It bypasses the
// memory-SSA pass to pin that edge set, and returns the graph, the
// labels of ℓ1..ℓ5 (l[1]..l[5]) and the object.
func Build() (g *svfg.Graph, l [6]uint32, a ir.Obj) {
	prog := irparse.MustParse(`
func main() {
entry:
  p = alloc.heap a 0
  q = copy p
  x1 = alloc b1 0
  x2 = alloc b2 0
  store p, x1
  v3 = load p
  store q, x2
  v4 = load p
  v5 = load p
  ret
}
`)
	aux := andersen.Analyze(prog)
	stores, loads := 0, 0
	prog.FuncByName("main").ForEachInstr(func(in *ir.Instr) {
		switch in.Op {
		case ir.Alloc:
			if prog.Value(in.Obj).Name == "a" {
				a = prog.ObjNum(in.Obj)
			}
		case ir.Store:
			stores++
			l[stores] = in.Label
		case ir.Load:
			loads++
			l[2+loads] = in.Label
		}
	})

	n := len(prog.Instrs)
	mssa := &memssa.Result{Prog: prog, Aux: aux, Mu: make([]*bitset.Sparse, n), Chi: make([]*bitset.Sparse, n)}
	mssa.Chi[l[1]] = bitset.Of(uint32(a))
	mssa.Chi[l[2]] = bitset.Of(uint32(a))
	for _, ld := range l[3:] {
		mssa.Mu[ld] = bitset.Of(uint32(a))
	}
	mssa.NumberSlots()
	g = svfg.Build(prog, aux, mssa)
	for _, e := range [][2]int{{1, 2}, {1, 3}, {1, 4}, {1, 5}, {2, 4}, {2, 5}} {
		g.AddIndirectEdge(l[e[0]], l[e[1]], a)
	}
	return g, l, a
}
