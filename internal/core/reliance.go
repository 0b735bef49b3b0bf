package core

import (
	"context"
	"math"

	"vsfs/internal/graph"
	"vsfs/internal/guard"
	"vsfs/internal/meld"
)

// overflow holds the version reliances the solve adds on the fly, as
// one linked list per representative in flat arrays, newest first.
type overflow struct {
	head []int32 // 1 + index in to/next of r's newest edge; 0 = none
	to   []meld.Version
	next []int32
}

func (x *overflow) add(from, to meld.Version) {
	x.to = append(x.to, to)
	x.next = append(x.next, x.head[from])
	x.head[from] = int32(len(x.to))
}

// sccFinder is an iterative Tarjan over a CSR graph. rep maps each
// vertex to the root of its strongly connected component. There is no
// recursion, so a long reliance chain cannot grow the goroutine stack.
type sccFinder struct {
	g     *graph.CSR
	rep   []meld.Version
	index []int32 // DFS number; 0 = not yet visited; MaxInt32 once in a finished component
	low   []int32
	stack []uint32
	// frames is the explicit DFS call stack: a vertex, its next edge in
	// g.Adj, and the Tarjan stack height before it was pushed.
	frames []sccFrame

	counter int32
	visits  int

	sccs, members int // components of two or more vertices, and their vertices
}

type sccFrame struct {
	v, next uint32
	base    int
}

// collapse computes g's strongly connected components. It polls ctx
// every cancelCheckInterval vertex visits.
func collapse(ctx context.Context, g *graph.CSR) (*sccFinder, error) {
	n := len(g.Off) - 1
	f := &sccFinder{
		g:     g,
		rep:   make([]meld.Version, n),
		index: make([]int32, n),
		low:   make([]int32, n),
	}
	for v := range f.rep {
		f.rep[v] = meld.Version(v)
	}
	for v := range uint32(n) {
		// A vertex with no out-edge is alone in its component.
		if f.index[v] == 0 && g.Off[v] != g.Off[v+1] {
			if err := f.strongConnect(ctx, v); err != nil {
				return nil, err
			}
		}
	}
	return f, nil
}

func (f *sccFinder) strongConnect(ctx context.Context, root uint32) error {
	if err := f.enter(ctx, root); err != nil {
		return err
	}
	for len(f.frames) > 0 {
		fr := &f.frames[len(f.frames)-1]
		if fr.next < f.g.Off[fr.v+1] {
			t := f.g.Adj[fr.next]
			fr.next++
			if f.index[t] == 0 {
				if err := f.enter(ctx, t); err != nil {
					return err
				}
			} else {
				f.low[fr.v] = min(f.low[fr.v], f.index[t])
			}
			continue
		}
		v, base := fr.v, fr.base
		f.frames = f.frames[:len(f.frames)-1]
		if len(f.frames) > 0 {
			p := f.frames[len(f.frames)-1].v
			f.low[p] = min(f.low[p], f.low[v])
		}
		if f.low[v] != f.index[v] {
			continue
		}
		comp := f.stack[base:]
		if len(comp) > 1 {
			f.sccs++
			f.members += len(comp)
		}
		for _, w := range comp {
			f.rep[w] = v
			f.index[w] = math.MaxInt32
		}
		f.stack = f.stack[:base]
	}
	return nil
}

// enter visits v: numbers it, pushes it on the Tarjan stack and opens
// its DFS frame, charging the budget every cancelCheckInterval visits.
func (f *sccFinder) enter(ctx context.Context, v uint32) error {
	if f.visits%cancelCheckInterval == 0 {
		if err := guard.Tick(ctx, "solve", cancelCheckInterval); err != nil {
			return err
		}
	}
	f.visits++
	f.counter++
	f.index[v], f.low[v] = f.counter, f.counter
	f.frames = append(f.frames, sccFrame{v: v, next: f.g.Off[v], base: len(f.stack)})
	f.stack = append(f.stack, v)
	return nil
}
