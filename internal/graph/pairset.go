package graph

import (
	"math/bits"
	"slices"
)

// PairSet is an open-addressing hash set of (from, to) id pairs, probed
// linearly in one pointer-free table. 0 marks a free cell, so the pair
// (0, 0) cannot be stored; the edges kept here never join an id to
// itself. The zero value is an empty set.
type PairSet struct {
	keys  []uint64
	shift uint // 64 - log2(len(keys))
	n     int
}

// NewPairSet returns a set with room for hint pairs at half load.
func NewPairSet(hint int) PairSet {
	n := bits.Len(uint(2*max(hint, 8) - 1))
	return PairSet{keys: make([]uint64, 1<<n), shift: uint(64 - n)}
}

// Add inserts from → to and reports whether it was new.
func (p *PairSet) Add(from, to uint32) bool {
	if 2*(p.n+1) > len(p.keys) {
		old := p.keys
		*p = NewPairSet(len(old))
		for _, k := range old {
			if k != 0 {
				p.insert(k)
			}
		}
	}
	return p.insert(uint64(from)<<32 | uint64(to))
}

func (p *PairSet) insert(k uint64) bool {
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

// Clone returns an independent copy of the set.
func (p *PairSet) Clone() PairSet {
	c := *p
	c.keys = slices.Clone(p.keys)
	return c
}

// Bytes returns the storage the set holds.
func (p *PairSet) Bytes() int64 { return 8 * int64(len(p.keys)) }
