package bitset

import "math/bits"

// Interner keeps one canonical set per distinct Sparse contents, under a
// stable dense uint32 ID. Canon lets the holders of equal finished sets
// share one of them; Get and Len enumerate what was stored. It is the
// content table of a Store.
type Interner struct {
	sets   []*Sparse // ID -> canonical (frozen) set
	hashes []uint64  // ID -> content hash
	// table is an open-addressing index from content hash to ID + 1 (0
	// marks a free slot), linearly probed from slot(hash); its length
	// is a power of two at least 4/3 of len(sets), 1<<(64-shift). It
	// grows with the sets stored.
	table []uint32
	shift uint
	words int // the words of the sets stored
}

// NewInterner returns an empty interner. ID 0 is pre-assigned to the empty
// set.
func NewInterner() *Interner {
	in := &Interner{}
	in.init()
	return in
}

// init stores the empty set under ID 0.
func (in *Interner) init() {
	in.add(New(), New().Hash())
}

// Canon returns the canonical set with the contents of s: the stored one
// when the contents have been seen, otherwise s itself, which becomes
// canonical under the next ID without being copied. Canon therefore
// allocates no set elements. It hands s over: once the caller keeps the
// result in place of s, neither may be mutated again, since other
// holders share it.
func (in *Interner) Canon(s *Sparse) *Sparse { return in.sets[in.CanonID(s)] }

// CanonID is Canon returning the canonical set's ID, which indexes
// whatever the caller keeps per distinct contents. It hands s over as
// Canon does.
func (in *Interner) CanonID(s *Sparse) uint32 {
	h := s.Hash()
	if id, ok := in.find(s, h); ok {
		return id
	}
	return in.add(s, h)
}

// Intern is Canon for a set the caller keeps: when the contents are
// new, it stores a copy of s, so s is neither handed over nor copied
// when an equal set is already stored.
func (in *Interner) Intern(s *Sparse) *Sparse {
	h := s.Hash()
	if id, ok := in.find(s, h); ok {
		return in.sets[id]
	}
	c := s.Clone()
	in.add(c, h)
	return c
}

// find returns the ID of the stored set equal to s, whose hash is h.
func (in *Interner) find(s *Sparse, h uint64) (uint32, bool) {
	mask := uint64(len(in.table) - 1)
	for i := in.slot(h); in.table[i] != 0; i = (i + 1) & mask {
		if id := in.table[i] - 1; in.hashes[id] == h && in.sets[id].Equal(s) {
			return id, true
		}
	}
	return 0, false
}

// add stores s, whose hash is h, under the next ID and returns it.
func (in *Interner) add(s *Sparse, h uint64) uint32 {
	id := uint32(len(in.sets))
	in.sets = append(in.sets, s)
	in.hashes = append(in.hashes, h)
	in.words += s.Words()
	if 3*len(in.table) < 4*len(in.sets) {
		in.rehash(max(8, 2*len(in.table)))
	} else {
		in.place(id)
	}
	return id
}

// slot is where the probe for hash h starts: Fibonacci hashing, whose
// top bits depend on every bit of h.
func (in *Interner) slot(h uint64) uint64 { return (h * 0x9e3779b97f4a7c15) >> in.shift }

// rehash rebuilds the index with n slots, a power of two.
func (in *Interner) rehash(n int) {
	in.table = make([]uint32, n)
	in.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for id := range uint32(len(in.sets)) {
		in.place(id)
	}
}

// place puts id into the first free slot of its probe sequence.
func (in *Interner) place(id uint32) {
	mask := uint64(len(in.table) - 1)
	i := in.slot(in.hashes[id])
	for in.table[i] != 0 {
		i = (i + 1) & mask
	}
	in.table[i] = id + 1
}

// Get returns the canonical set for an ID. The result must not be mutated.
func (in *Interner) Get(id uint32) *Sparse { return in.sets[id] }

// Words returns the words of the sets stored, adopted or copied: the
// element storage the interner keeps, which a phase charges to its
// memory budget.
func (in *Interner) Words() int { return in.words }

// Len returns the number of distinct sets stored (including the empty
// set).
func (in *Interner) Len() int { return len(in.sets) }
