package bitset

import (
	"math/bits"
	"slices"
)

// Store is a hash-consed set store for one solve: a set is a uint32 ID
// into it, and 0 is the empty set. Each distinct content is held once,
// as a frozen Sparse that Get hands out read-only (level 1), and Union,
// Diff and Insert work on IDs, answering repeated operations from a
// memo (level 2). Equal contents always have one ID, so an operation
// changed a set exactly when its ID changed.
//
// The memo is a direct-mapped cache keyed by (op, a, b): a colliding
// entry overwrites the older one, and a miss computes the operation
// again. It starts small and doubles with its misses up to memoMaxSlots
// entries, so it is bounded with no knob and grows with the solve. A
// Store is not safe for concurrent use; a solve keeps one and drops it,
// memo and all, when it ends.
type Store struct {
	Interner

	memo         []memoEntry
	memoShift    uint
	hits, misses int

	// scratch receives each computed result before it is interned;
	// one is the one-element operand of Insert.
	scratch Sparse
	one     [1]element
}

// memoMaxSlots bounds the memo: 1<<16 entries of 16 bytes, 1 MiB.
const memoMaxSlots = 1 << 16

// memoMinSlots is the memo's size when its first entry arrives.
const memoMinSlots = 1 << 8

type memoOp uint32

const (
	opUnion memoOp = iota + 1 // the zero entry matches no key
	opDiff
)

type memoEntry struct {
	a, b uint32
	op   memoOp
	r    uint32
}

// StoreStats reports a store's size and how its memo answered.
type StoreStats struct {
	Sets       int // distinct sets held, ∅ included
	MemoHits   int // operations answered by the memo
	MemoMisses int // operations computed
}

// NewStore returns an empty store holding only ∅, under ID 0.
func NewStore() *Store {
	s := &Store{}
	s.init()
	return s
}

// Stats returns the store's counters.
func (s *Store) Stats() StoreStats {
	return StoreStats{Sets: s.Len(), MemoHits: s.hits, MemoMisses: s.misses}
}

// Union returns the ID of Get(a) ∪ Get(b).
func (s *Store) Union(a, b uint32) uint32 {
	switch {
	case a == b || b == 0:
		return a
	case a == 0:
		return b
	}
	if a > b {
		a, b = b, a
	}
	e := s.lookup(opUnion, a, b)
	if e.op == opUnion && e.a == a && e.b == b {
		s.hits++
		return e.r
	}
	s.misses++
	r := s.unionOf(a, b)
	s.remember(opUnion, a, b, r)
	return r
}

// unionOf computes Get(a) ∪ Get(b): an operand that already holds the
// union is the answer, and a new content is stored.
func (s *Store) unionOf(a, b uint32) uint32 {
	bAdds, aAdds := s.scratch.setUnion(s.sets[a], s.sets[b])
	switch {
	case !bAdds:
		return a
	case !aAdds:
		return b
	}
	return s.keep()
}

// Diff returns the ID of Get(a) \ Get(b).
func (s *Store) Diff(a, b uint32) uint32 {
	switch {
	case a == 0 || a == b:
		return 0
	case b == 0:
		return a
	}
	e := s.lookup(opDiff, a, b)
	if e.op == opDiff && e.a == a && e.b == b {
		s.hits++
		return e.r
	}
	s.misses++
	var r uint32
	if s.scratch.setDiff(s.sets[a], s.sets[b]) {
		r = s.keep()
	} else {
		r = a
	}
	s.remember(opDiff, a, b, r)
	return r
}

// Insert returns the ID of Get(a) ∪ {x}. It does not use the memo: a
// membership test answers the common case.
func (s *Store) Insert(a, x uint32) uint32 {
	if s.sets[a].Has(x) {
		return a
	}
	s.one[0] = element{base: x &^ (wordBits - 1), word: 1 << (x % wordBits)}
	s.scratch.setUnion(s.sets[a], &Sparse{elems: s.one[:]})
	return s.keep()
}

// keep returns the ID of scratch's contents, storing a copy when they
// are new. The copy is the store's only allocation of set elements.
func (s *Store) keep() uint32 {
	if len(s.scratch.elems) == 0 {
		return 0
	}
	h := s.scratch.Hash()
	if id, ok := s.find(&s.scratch, h); ok {
		return id
	}
	return s.add(&Sparse{elems: slices.Clone(s.scratch.elems)}, h)
}

// memoSlot returns the memo index of (op, a, b).
func (s *Store) memoSlot(op memoOp, a, b uint32) uint64 {
	h := (uint64(a)<<32 | uint64(b)) ^ uint64(op)<<62
	return (h * 0x9e3779b97f4a7c15) >> s.memoShift
}

// lookup returns the memo entry (op, a, b) would occupy; the caller
// checks its key.
func (s *Store) lookup(op memoOp, a, b uint32) memoEntry {
	if s.memo == nil {
		return memoEntry{}
	}
	return s.memo[s.memoSlot(op, a, b)]
}

// remember records r as the answer to (op, a, b). The memo doubles
// each time its misses reach its size, up to memoMaxSlots, carrying its
// entries over.
func (s *Store) remember(op memoOp, a, b, r uint32) {
	if n := len(s.memo); n < memoMaxSlots && s.misses >= n {
		old := s.memo
		n = max(memoMinSlots, 2*n)
		s.memo = make([]memoEntry, n)
		s.memoShift = uint(64 - bits.TrailingZeros(uint(n)))
		for _, e := range old {
			if e.op != 0 {
				s.memo[s.memoSlot(e.op, e.a, e.b)] = e
			}
		}
	}
	s.memo[s.memoSlot(op, a, b)] = memoEntry{a: a, b: b, op: op, r: r}
}

// Sets resolves ids to their stored sets, with nil for ∅. A solve ends
// by handing these to its result: they are shared and frozen, and the
// sets no ID names any more, like the memo, go with the store.
func (s *Store) Sets(ids []uint32) []*Sparse {
	out := make([]*Sparse, len(ids))
	for i, id := range ids {
		if id != 0 {
			out[i] = s.sets[id]
		}
	}
	return out
}
