package svfg

import (
	"fmt"
	"io"

	"vsfs/internal/ir"
)

// WriteDot renders the SVFG in Graphviz dot format: one node per
// instruction grouped into per-function clusters, solid edges for
// top-level (direct) value flows and dashed edges labelled with the
// object for indirect flows. δ nodes are drawn doubled. Intended for
// small programs — the output grows with the graph.
func (g *Graph) WriteDot(w io.Writer) error {
	prog := g.Prog
	if _, err := fmt.Fprintln(w, "digraph svfg {"); err != nil {
		return err
	}
	fmt.Fprintln(w, `  rankdir=TB;`)
	fmt.Fprintln(w, `  node [shape=box, fontname="monospace", fontsize=10];`)

	for fi, f := range prog.Funcs {
		fmt.Fprintf(w, "  subgraph cluster_%d {\n    label=%q;\n", fi, f.Name)
		f.ForEachInstr(func(in *ir.Instr) {
			label := fmt.Sprintf("ℓ%d: %s", in.Label, describe(prog, in))
			attrs := ""
			if g.Delta[in.Label] {
				attrs = ", peripheries=2"
			}
			if in.Op == ir.Store {
				attrs += ", style=bold"
			}
			fmt.Fprintf(w, "    n%d [label=%q%s];\n", in.Label, label, attrs)
		})
		fmt.Fprintln(w, "  }")
	}

	// Direct (top-level) def-use edges.
	for v := ir.ID(1); int(v) < prog.NumValues(); v++ {
		def := g.DefSite[v]
		if def == 0 {
			continue
		}
		for _, use := range g.users[v] {
			fmt.Fprintf(w, "  n%d -> n%d [color=gray, label=%q, fontsize=8];\n",
				def, use, prog.NameOf(v))
		}
	}

	// Indirect (object) value-flow edges, by node then object.
	for from := uint32(0); int(from) < len(prog.Instrs); from++ {
		lo, hi := g.SlotRange(from)
		for s := lo; s < hi; s++ {
			for _, t := range g.AppendGained(g.SlotSuccs(s), s) {
				fmt.Fprintf(w, "  n%d -> n%d [style=dashed, label=%q, fontsize=8];\n",
					from, g.SlotNode(int(t)), prog.ObjValue(g.SlotObj(s)).Name)
			}
		}
	}

	_, err := fmt.Fprintln(w, "}")
	return err
}

func describe(prog *ir.Program, in *ir.Instr) string {
	name := prog.NameOf
	switch in.Op {
	case ir.Alloc:
		return fmt.Sprintf("%s = alloc %s", name(in.Def), name(in.Obj))
	case ir.Copy:
		return fmt.Sprintf("%s = %s", name(in.Def), name(in.Uses[0]))
	case ir.Phi:
		return fmt.Sprintf("%s = φ(…)", name(in.Def))
	case ir.Field:
		return fmt.Sprintf("%s = &%s->f%d", name(in.Def), name(in.Uses[0]), in.Off)
	case ir.Load:
		return fmt.Sprintf("%s = *%s", name(in.Def), name(in.Uses[0]))
	case ir.Store:
		return fmt.Sprintf("*%s = %s", name(in.Uses[0]), name(in.Uses[1]))
	case ir.Call:
		if in.Callee != nil {
			return fmt.Sprintf("call %s", in.Callee.Name)
		}
		return fmt.Sprintf("call *%s", name(in.CalleePtr()))
	case ir.FunEntry:
		return "funentry"
	case ir.FunExit:
		return "funexit"
	case ir.MemPhi:
		return fmt.Sprintf("%s = memφ", name(in.Obj))
	case ir.CallRet:
		return "callret"
	}
	return in.Op.String()
}
