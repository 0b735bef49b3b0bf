package andersen

import (
	"sync"

	"vsfs/internal/bitset"
	"vsfs/internal/graph"
	"vsfs/internal/ir"
)

// singletons is the lazily-computed classification behind Singletons;
// it lives in its own struct so Result stays copy-free.
type singletons struct {
	once sync.Once
	set  *bitset.Sparse
}

// Singletons returns the set of singleton objects, by object number:
// abstract objects
// that stand for exactly one concrete runtime cell, so a store known to
// target one of them alone may strongly update (kill) its contents.
// Globals always qualify; stack objects qualify when their defining
// function is non-recursive (one live frame at a time); heap and
// function objects never do, nor do field-collapsed objects.
//
// This is the single classification every strong-update-capable
// backend shares — the SVFG/SFS/VSFS pipeline and the CFG-free solver —
// so their kill predicates can never drift apart. The set is computed
// on first use over the auxiliary call graph and cached; field objects
// all exist by the time the auxiliary solve finishes, so the value
// space is stable. The returned set is shared and must not be mutated.
func (r *Result) Singletons() *bitset.Sparse {
	r.single.once.Do(func() {
		r.single.set = computeSingletons(r.prog, r)
	})
	return r.single.set
}

func computeSingletons(prog *ir.Program, aux *Result) *bitset.Sparse {
	// Recursive functions via the auxiliary call graph.
	idx := make(map[*ir.Function]uint32, len(prog.Funcs))
	for i, f := range prog.Funcs {
		idx[f] = uint32(i)
	}
	cg := graph.New(len(prog.Funcs))
	selfLoop := make([]bool, len(prog.Funcs))
	for _, f := range prog.Funcs {
		f.ForEachInstr(func(in *ir.Instr) {
			if in.Op != ir.Call {
				return
			}
			for _, callee := range aux.CalleesOf(in) {
				cg.AddEdge(idx[f], idx[callee])
				if callee == f {
					selfLoop[idx[f]] = true
				}
			}
		})
	}
	comp, k := cg.SCCs()
	sccSize := make([]int, k)
	for _, c := range comp {
		sccSize[c]++
	}
	recursive := func(f *ir.Function) bool {
		i := idx[f]
		return selfLoop[i] || sccSize[comp[i]] > 1
	}

	set := bitset.New()
	for o := range ir.Obj(prog.NumObjects()) {
		v := prog.ObjValue(o)
		if v.Collapsed {
			continue
		}
		switch v.ObjKind {
		case ir.GlobalObj:
			set.Set(uint32(o))
		case ir.StackObj:
			if v.DefFunc != nil && !recursive(v.DefFunc) {
				set.Set(uint32(o))
			}
		}
	}
	return set
}
