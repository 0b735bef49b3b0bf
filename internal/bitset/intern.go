package bitset

// Interner keeps one canonical set per distinct Sparse contents, under a
// stable dense uint32 ID. Canon lets the holders of equal finished sets
// share one of them; Get and Len enumerate what was stored.
type Interner struct {
	byHash map[uint64][]uint32 // content hash -> candidate IDs
	sets   []*Sparse           // ID -> canonical (frozen) set
}

// NewInterner returns an empty interner. ID 0 is pre-assigned to the empty
// set.
func NewInterner() *Interner {
	in := &Interner{byHash: make(map[uint64][]uint32)}
	empty := New()
	in.byHash[empty.Hash()] = []uint32{0}
	in.sets = append(in.sets, empty)
	return in
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
	for _, id := range in.byHash[h] {
		if in.sets[id].Equal(s) {
			return id, true
		}
	}
	return 0, false
}

// add stores s, whose hash is h, under the next ID and returns it.
func (in *Interner) add(s *Sparse, h uint64) uint32 {
	id := uint32(len(in.sets))
	in.byHash[h] = append(in.byHash[h], id)
	in.sets = append(in.sets, s)
	return id
}

// Get returns the canonical set for an ID. The result must not be mutated.
func (in *Interner) Get(id uint32) *Sparse { return in.sets[id] }

// Len returns the number of distinct sets stored (including the empty
// set).
func (in *Interner) Len() int { return len(in.sets) }
