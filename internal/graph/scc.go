package graph

import "math"

// PollInterval is how many vertex visits SCC makes between calls to its
// poll hook.
const PollInterval = 1024

// Components is the strongly-connected-component structure of a graph.
type Components struct {
	// Rep maps each vertex to its component's root: the member the
	// depth-first search reached first.
	Rep []uint32
	// Cycles counts the components of two or more vertices, and Members
	// the vertices they hold.
	Cycles, Members int
}

// SCC computes g's strongly connected components with Tarjan's
// algorithm. It runs iteratively, so a long path cannot grow the
// goroutine stack. poll, when not nil, runs before every PollInterval-th
// vertex visit, the first included, and an error from it ends the
// search. No search is rooted at a vertex with no out-edge, which is
// alone in its component, so an isolated vertex costs no visit.
func SCC(g *CSR, poll func() error) (Components, error) {
	n := g.NumRows()
	f := sccFinder{
		g:     g,
		poll:  poll,
		rep:   make([]uint32, n),
		index: make([]int32, n),
		low:   make([]int32, n),
	}
	for v := range f.rep {
		f.rep[v] = uint32(v)
	}
	for v := range uint32(n) {
		if f.index[v] == 0 && g.Off[v] != g.Off[v+1] {
			if err := f.strongConnect(v); err != nil {
				return Components{}, err
			}
		}
	}
	return Components{Rep: f.rep, Cycles: f.cycles, Members: f.members}, nil
}

// sccFinder is SCC's state.
type sccFinder struct {
	g     *CSR
	poll  func() error
	rep   []uint32
	index []int32 // DFS number; 0 = not yet visited; MaxInt32 once in a finished component
	low   []int32
	stack []uint32
	// frames is the explicit DFS call stack: a vertex, its next edge in
	// g.Adj, and the Tarjan stack height before it was pushed.
	frames []sccFrame

	counter int32
	visits  int

	cycles, members int
}

type sccFrame struct {
	v, next uint32
	base    int
}

func (f *sccFinder) strongConnect(root uint32) error {
	if err := f.enter(root); err != nil {
		return err
	}
	//vsfs:lint-ignore guardtick every vertex the search reaches passes enter, which runs the caller's poll hook every PollInterval visits; each frame pops once its edges are done
	for len(f.frames) > 0 {
		fr := &f.frames[len(f.frames)-1]
		if fr.next < f.g.Off[fr.v+1] {
			t := f.g.Adj[fr.next]
			fr.next++
			if f.index[t] == 0 {
				if err := f.enter(t); err != nil {
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
			f.cycles++
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
// its DFS frame, polling first every PollInterval visits.
func (f *sccFinder) enter(v uint32) error {
	if f.poll != nil && f.visits%PollInterval == 0 {
		if err := f.poll(); err != nil {
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
