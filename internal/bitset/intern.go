package bitset

// Interner assigns stable dense uint32 IDs to distinct Sparse contents.
// Two sets with equal members always intern to the same ID, which lets the
// meld labelling represent a version (a set of prelabel atoms) as a single
// comparable integer. Canon uses the same table to let the holders of
// equal finished sets share one of them.
type Interner struct {
	byHash map[uint64][]uint32 // content hash -> candidate IDs
	sets   []*Sparse           // ID -> canonical (frozen) set
}

// NewInterner returns an empty interner. ID 0 is pre-assigned to the empty
// set, so the zero ID doubles as the meld identity ε.
func NewInterner() *Interner {
	in := &Interner{byHash: make(map[uint64][]uint32)}
	empty := New()
	in.byHash[empty.Hash()] = []uint32{0}
	in.sets = append(in.sets, empty)
	return in
}

// Intern returns the ID for the contents of s, assigning a new one if the
// contents have not been seen. Intern stores a private clone of s, never s
// itself, so the caller remains free to mutate s afterwards; a mutation
// can never corrupt the canonical set behind the returned ID (the clone
// costs a copy only when the contents are new).
func (in *Interner) Intern(s *Sparse) uint32 {
	h := s.Hash()
	if id, ok := in.lookup(s, h); ok {
		return id
	}
	return in.add(s.Clone(), h)
}

// Canon returns the canonical set with the contents of s: the stored one
// when the contents have been seen, otherwise s itself, which becomes
// canonical without being copied. Canon therefore allocates no set
// elements. It hands s over: once the caller keeps the result in place
// of s, neither may be mutated again, since other holders share it.
func (in *Interner) Canon(s *Sparse) *Sparse {
	h := s.Hash()
	if id, ok := in.lookup(s, h); ok {
		return in.sets[id]
	}
	in.add(s, h)
	return s
}

// lookup returns the ID of the stored set equal to s, whose hash is h.
func (in *Interner) lookup(s *Sparse, h uint64) (uint32, bool) {
	for _, id := range in.byHash[h] {
		if in.sets[id].Equal(s) {
			return id, true
		}
	}
	return 0, false
}

// add stores s, whose hash is h, under a fresh ID.
func (in *Interner) add(s *Sparse, h uint64) uint32 {
	id := uint32(len(in.sets))
	in.sets = append(in.sets, s)
	in.byHash[h] = append(in.byHash[h], id)
	return id
}

// Get returns the canonical set for an ID. The result must not be mutated.
func (in *Interner) Get(id uint32) *Sparse { return in.sets[id] }

// Len returns the number of distinct sets interned (including the empty
// set).
func (in *Interner) Len() int { return len(in.sets) }
