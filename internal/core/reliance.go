package core

import (
	"context"
	"math"
	"math/bits"

	"vsfs/internal/guard"
	"vsfs/internal/meld"
)

// csr is a graph over dense ids in compressed sparse row form: row v is
// adj[off[v]:off[v+1]]. One pointer-free array holds every row.
type csr struct {
	off []uint32
	adj []uint32
}

func (c *csr) row(v uint32) []uint32 { return c.adj[c.off[v]:c.off[v+1]] }

// buildCSR builds an n-row csr over targets below m from the edges that
// each passes to emit. each runs twice, once to count the rows and once
// to fill them, so no edge list is held; it must emit the same edges
// both times. Each row keeps the first occurrence of every target, in
// emission order.
func buildCSR(n, m int, each func(emit func(row, to uint32))) csr {
	off := make([]uint32, n+1)
	each(func(row, _ uint32) { off[row+1]++ })
	for v := range n {
		off[v+1] += off[v]
	}
	adj := make([]uint32, off[n])
	next := make([]uint32, n)
	copy(next, off)
	each(func(row, to uint32) {
		adj[next[row]] = to
		next[row]++
	})
	// Deduplicate each row in place: stamp[t] = v+1 once row v kept t.
	// next is spent, so its storage serves when it is large enough.
	stamp := next
	if m > n {
		stamp = make([]uint32, m)
	} else {
		stamp = next[:m]
		clear(stamp)
	}
	w := uint32(0)
	for v := range n {
		lo, hi := off[v], off[v+1]
		off[v] = w
		for _, t := range adj[lo:hi] {
			if stamp[t] != uint32(v)+1 {
				stamp[t] = uint32(v) + 1
				adj[w] = t
				w++
			}
		}
	}
	off[n] = w
	return csr{off: off, adj: adj[:w]}
}

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

// pairSet is an open-addressing hash set of version pairs, probed
// linearly in one pointer-free table. 0 marks a free cell; no pair is 0,
// since a reliance never joins a version to itself.
type pairSet struct {
	keys  []uint64
	shift uint // 64 - log2(len(keys))
	n     int
}

// newPairSet returns a set with room for hint pairs at half load.
func newPairSet(hint int) pairSet {
	n := bits.Len(uint(2*max(hint, 8) - 1))
	return pairSet{keys: make([]uint64, 1<<n), shift: uint(64 - n)}
}

// add inserts from → to and reports whether it was new.
func (p *pairSet) add(from, to meld.Version) bool {
	if 2*(p.n+1) > len(p.keys) {
		old := p.keys
		*p = newPairSet(len(old))
		for _, k := range old {
			if k != 0 {
				p.insert(k)
			}
		}
	}
	return p.insert(uint64(from)<<32 | uint64(to))
}

func (p *pairSet) insert(k uint64) bool {
	mask := uint64(len(p.keys) - 1)
	i := (k * 0x9e3779b97f4a7c15) >> p.shift
	for ; p.keys[i] != 0; i = (i + 1) & mask {
		if p.keys[i] == k {
			return false
		}
	}
	p.keys[i] = k
	p.n++
	return true
}

// sccFinder is an iterative Tarjan over a csr graph. rep maps each
// vertex to the root of its strongly connected component. There is no
// recursion, so a long reliance chain cannot grow the goroutine stack.
type sccFinder struct {
	g     *csr
	rep   []meld.Version
	index []int32 // DFS number; 0 = not yet visited; MaxInt32 once in a finished component
	low   []int32
	stack []uint32
	// frames is the explicit DFS call stack: a vertex, its next edge in
	// g.adj, and the Tarjan stack height before it was pushed.
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
func collapse(ctx context.Context, g *csr) (*sccFinder, error) {
	n := len(g.off) - 1
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
		if f.index[v] == 0 && g.off[v] != g.off[v+1] {
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
		if fr.next < f.g.off[fr.v+1] {
			t := f.g.adj[fr.next]
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
	f.frames = append(f.frames, sccFrame{v: v, next: f.g.off[v], base: len(f.stack)})
	f.stack = append(f.stack, v)
	return nil
}
