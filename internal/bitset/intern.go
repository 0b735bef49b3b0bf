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
func (in *Interner) Canon(s *Sparse) *Sparse {
	h := s.Hash()
	for _, id := range in.byHash[h] {
		if in.sets[id].Equal(s) {
			return in.sets[id]
		}
	}
	in.byHash[h] = append(in.byHash[h], uint32(len(in.sets)))
	in.sets = append(in.sets, s)
	return s
}

// Get returns the canonical set for an ID. The result must not be mutated.
func (in *Interner) Get(id uint32) *Sparse { return in.sets[id] }

// Len returns the number of distinct sets stored (including the empty
// set).
func (in *Interner) Len() int { return len(in.sets) }
