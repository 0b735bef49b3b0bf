// Package cfg computes per-function control-flow facts needed by the
// memory-SSA construction: reverse postorder, immediate dominators
// (Cooper–Harvey–Kennedy, "A Simple, Fast Dominance Algorithm"), and
// dominance frontiers (Cytron et al.), which determine where MEMPHI nodes
// are placed.
package cfg

import "vsfs/internal/ir"

// Info holds the control-flow facts for one function. Blocks unreachable
// from the entry have Idom == nil and empty frontiers; the memory-SSA pass
// skips them.
//
// An Info makes three allocations whatever the function's size: itself,
// one int32 array holding every per-block number and the scratch the
// computation needs, and one block array holding RPO and every frontier.
type Info struct {
	Fn *ir.Function

	// RPO is the reverse postorder of reachable blocks, starting with the
	// entry block.
	RPO []*ir.Block

	// rpoNum maps block index (within Fn.Blocks) to its position in RPO,
	// or -1 if unreachable.
	rpoNum []int32

	// idom maps block index to its immediate dominator's index (-1 for
	// entry and unreachable blocks).
	idom []int32

	// The dominance frontiers in compressed sparse row form: block b's
	// is dfAdj[dfOff[b]:dfOff[b+1]].
	dfOff []int32
	dfAdj []*ir.Block
}

// Compute builds the Info for f.
func Compute(f *ir.Function) *Info {
	n := len(f.Blocks)
	ints := make([]int32, 5*n+1)
	info := &Info{
		Fn:     f,
		rpoNum: ints[:n:n],
		idom:   ints[n : 2*n : 2*n],
		dfOff:  ints[2*n : 3*n+1 : 3*n+1],
	}
	// Two n-long scratch rows: a holds the search stack and then the
	// blocks in RPO; b each step's own scratch in turn.
	a, b := ints[3*n+1:4*n+1], ints[4*n+1:]
	order := info.buildRPO(a, b)
	info.buildIdom(order, b)
	info.buildFrontiers(order, b)
	return info
}

// Reachable reports whether b is reachable from the entry.
func (i *Info) Reachable(b *ir.Block) bool { return i.rpoNum[b.Index] >= 0 }

// Idom returns the immediate dominator of b (nil for the entry block and
// unreachable blocks).
func (i *Info) Idom(b *ir.Block) *ir.Block {
	if d := i.idom[b.Index]; d >= 0 {
		return i.Fn.Blocks[d]
	}
	return nil
}

// Frontier returns the dominance frontier of b. The result must not be
// mutated.
func (i *Info) Frontier(b *ir.Block) []*ir.Block {
	lo, hi := i.dfOff[b.Index], i.dfOff[b.Index+1]
	return i.dfAdj[lo:hi:hi]
}

// Dominates reports whether a dominates b (reflexively).
func (i *Info) Dominates(a, b *ir.Block) bool {
	if !i.Reachable(a) || !i.Reachable(b) {
		return false
	}
	for x := int32(b.Index); x >= 0; x = i.idom[x] {
		if x == int32(a.Index) {
			return true
		}
	}
	return false
}

// buildRPO numbers the reachable blocks in reverse postorder with an
// iterative depth-first search, and returns their indices in that
// order, held in stack. next[b] is the next successor of b to visit, or
// -1 while b is unseen.
func (i *Info) buildRPO(stack, next []int32) []int32 {
	f := i.Fn
	for k := range next {
		next[k], i.rpoNum[k] = -1, -1
	}
	// rpoNum holds each finished block's postorder number until the
	// search ends.
	top, post := 0, int32(0)
	stack[0], next[f.Entry.Index] = int32(f.Entry.Index), 0
	for top >= 0 {
		v := stack[top]
		succs := f.Blocks[v].Succs
		if int(next[v]) < len(succs) {
			s := succs[next[v]].Index
			next[v]++
			if next[s] < 0 {
				next[s] = 0
				top++
				stack[top] = int32(s)
			}
			continue
		}
		i.rpoNum[v] = post
		post++
		top--
	}
	order := stack[:post]
	for v, p := range i.rpoNum {
		if p >= 0 {
			i.rpoNum[v] = post - 1 - p
			order[post-1-p] = int32(v)
		}
	}
	return order
}

// buildIdom runs the CHK iteration-to-fixpoint over RPO; doms, indexed
// by RPO number, is its scratch.
func (i *Info) buildIdom(order, doms []int32) {
	for k := range i.idom {
		i.idom[k] = -1
	}
	doms = doms[:len(order)]
	for k := range doms {
		doms[k] = -1
	}
	doms[0] = 0

	intersect := func(a, b int32) int32 {
		for a != b {
			for a > b {
				a = doms[a]
			}
			for b > a {
				b = doms[b]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for k := 1; k < len(order); k++ {
			newIdom := int32(-1)
			for _, p := range i.Fn.Blocks[order[k]].Preds {
				pn := i.rpoNum[p.Index]
				if pn < 0 || doms[pn] < 0 {
					continue
				}
				if newIdom < 0 {
					newIdom = pn
				} else {
					newIdom = intersect(newIdom, pn)
				}
			}
			if newIdom >= 0 && doms[k] != newIdom {
				doms[k] = newIdom
				changed = true
			}
		}
	}
	for k := 1; k < len(order); k++ {
		if doms[k] >= 0 {
			i.idom[order[k]] = order[doms[k]]
		}
	}
}

// buildFrontiers computes DF(b) with the standard two-predecessor walk,
// run twice: once to count each frontier and once to fill it, each in
// the order the walk reaches it. Blocks are visited in RPO, so a block
// is added to a frontier only while it is the one being visited;
// stamp[r] = k+1 marks that r's frontier already holds RPO block k.
// The block array holds RPO first, then every frontier.
func (i *Info) buildFrontiers(order, stamp []int32) {
	walk := func(add func(runner, k int32)) {
		clear(stamp)
		for k, v := range order {
			for _, p := range i.Fn.Blocks[v].Preds {
				if i.rpoNum[p.Index] < 0 {
					continue
				}
				for r := int32(p.Index); r >= 0 && r != i.idom[v]; r = i.idom[r] {
					if stamp[r] != int32(k)+1 {
						stamp[r] = int32(k) + 1
						add(r, int32(k))
					}
				}
			}
		}
	}
	off := i.dfOff
	walk(func(r, _ int32) { off[r+1]++ })
	for v := range len(off) - 1 {
		off[v+1] += off[v]
	}
	blocks := make([]*ir.Block, len(order)+int(off[len(off)-1]))
	i.RPO, i.dfAdj = blocks[:len(order):len(order)], blocks[len(order):]
	for k, v := range order {
		i.RPO[k] = i.Fn.Blocks[v]
	}
	// Fill: off[r] is r's next free cell, and ends at r+1's start.
	walk(func(r, k int32) {
		i.dfAdj[off[r]] = i.RPO[k]
		off[r]++
	})
	copy(off[1:], off[:len(off)-1])
	off[0] = 0
}
