// Motivating example: reconstructs the paper's Figure 2 — an SVFG
// fragment with two stores and three loads of one object — and shows
// exactly the numbers from the paper: SFS maintains 6 points-to sets and
// 6 propagation constraints for the object; VSFS maintains 3 and 2 while
// computing identical results.
//
//	go run ./examples/motivating
package main

import (
	"fmt"
	"strings"

	"vsfs/internal/andersen"
	"vsfs/internal/bitset"
	"vsfs/internal/core"
	"vsfs/internal/ir"
	"vsfs/internal/irparse"
	"vsfs/internal/memssa"
	"vsfs/internal/sfs"
	"vsfs/internal/svfg"
)

func main() {
	// The instruction carrier: two stores to object a (through p and its
	// copy q) and three loads. The heap kind makes updates weak, as in
	// the figure.
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

	// Collect ℓ1..ℓ5 and the object a.
	var l [6]uint32
	var a ir.Obj
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

	// Pin Figure 2's exact indirect edges (the paper extracted this
	// fragment from GNU coreutils' true).
	n := len(prog.Instrs)
	mssa := &memssa.Result{
		Prog: prog, Aux: aux,
		Mu:        make([]*bitset.Sparse, n),
		Chi:       make([]*bitset.Sparse, n),
		FormalIn:  map[*ir.Function]*bitset.Sparse{},
		FormalOut: map[*ir.Function]*bitset.Sparse{},
		CallRets:  map[*ir.Instr]*ir.Instr{},
	}
	for _, f := range prog.Funcs {
		mssa.FormalIn[f] = bitset.New()
		mssa.FormalOut[f] = bitset.New()
	}
	mssa.Chi[l[1]] = bitset.Of(uint32(a))
	mssa.Chi[l[2]] = bitset.Of(uint32(a))
	for _, ld := range []uint32{l[3], l[4], l[5]} {
		mssa.Mu[ld] = bitset.Of(uint32(a))
	}
	mssa.Edges = []memssa.IndirEdge{
		{From: l[1], To: l[2], Obj: a},
		{From: l[1], To: l[3], Obj: a},
		{From: l[1], To: l[4], Obj: a},
		{From: l[1], To: l[5], Obj: a},
		{From: l[2], To: l[4], Obj: a},
		{From: l[2], To: l[5], Obj: a},
	}
	g := svfg.Build(prog, aux, mssa)

	fmt.Println("Figure 2 fragment: ℓ1,ℓ2 store to o; ℓ3,ℓ4,ℓ5 load o")
	fmt.Println("edges: ℓ1→{ℓ2,ℓ3,ℓ4,ℓ5}, ℓ2→{ℓ4,ℓ5}")
	fmt.Println()

	sfsRes := sfs.Solve(g.Clone())
	vsfsRes := core.Solve(g.Clone())

	// objNames renders a points-to set, which holds object numbers.
	objNames := func(set *bitset.Sparse) string {
		var names []string
		set.ForEach(func(o uint32) { names = append(names, prog.ObjValue(ir.Obj(o)).Name) })
		return "{" + strings.Join(names, ", ") + "}"
	}
	fmt.Println("== identical results ==")
	for i, v := range []string{"v3", "v4", "v5"} {
		id := varByName(prog, v)
		fmt.Printf("  pt(ℓ%d def %s): SFS %s  VSFS %s\n",
			3+i, prog.NameOf(id), objNames(sfsRes.PointsTo(id)), objNames(vsfsRes.PointsTo(id)))
	}

	fmt.Println("\n== versions (Figure 9) ==")
	fmt.Printf("  ηℓ1(o) = κ%d   (prelabel)\n", vsfsRes.YieldVersion(l[1], a))
	fmt.Printf("  ηℓ2(o) = κ%d   (prelabel)\n", vsfsRes.YieldVersion(l[2], a))
	fmt.Printf("  ξℓ2(o) = κ%d = ξℓ3(o) = κ%d = ηℓ1(o)\n",
		vsfsRes.ConsumeVersion(l[2], a), vsfsRes.ConsumeVersion(l[3], a))
	fmt.Printf("  ξℓ4(o) = κ%d = ξℓ5(o) = κ%d   (κ1 ⊙ κ2)\n",
		vsfsRes.ConsumeVersion(l[4], a), vsfsRes.ConsumeVersion(l[5], a))

	fmt.Println("\n== the paper's headline numbers ==")
	fmt.Printf("  SFS : %d points-to sets for o, %d propagation constraints\n",
		sfsRes.Stats.PtsSets, g.NumIndirectEdges)
	fmt.Printf("  VSFS: %d points-to sets for o, %d propagation constraints\n",
		vsfsRes.Stats.PtsSets, vsfsRes.Stats.VersionConstraints)
}

func varByName(prog *ir.Program, name string) ir.ID {
	for id := ir.ID(1); int(id) < prog.NumValues(); id++ {
		if prog.IsPointer(id) && prog.Value(id).Name == name {
			return id
		}
	}
	panic("no variable " + name)
}
