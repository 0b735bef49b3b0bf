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

	"vsfs/internal/bitset"
	"vsfs/internal/core"
	"vsfs/internal/figure2"
	"vsfs/internal/ir"
	"vsfs/internal/sfs"
)

func main() {
	// Two weak stores ℓ1, ℓ2 to one heap object a and three loads, wired
	// with exactly the figure's indirect edges.
	g, l, a := figure2.Build()
	prog := g.Prog

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
