// Package bitset provides a sparse bit vector keyed by uint32, the
// backing representation for points-to sets and meld-label sets
// throughout the analysis. It mirrors the role LLVM's SparseBitVector
// plays in SVF: membership, union, intersection and difference over
// mostly-clustered small integer IDs, with cheap copy and equality.
//
// The solvers do not mutate points-to sets in place. Each solve keeps
// one Store, which hash-conses sets: a set is a uint32 ID, each distinct
// content is held once as a frozen Sparse, and union and difference of
// IDs are memoised. An Interner, the Store's content table, also serves
// passes that only share finished sets.
package bitset

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

const wordBits = 64

// element is one 64-bit chunk of the vector. base is the ID of the first
// bit in the chunk (always a multiple of 64); word holds the 64 membership
// bits starting at base.
type element struct {
	base uint32
	word uint64
}

// WordBytes is the in-memory size of one element of a Sparse set: a
// 64-bit word plus its 32-bit base (padded). Phases multiply the words
// they grow by it to charge a memory budget in bytes.
const WordBytes = 16

// Sparse is a sparse bit vector over uint32 IDs. The zero value is an
// empty, ready-to-use set. Sparse is not safe for concurrent mutation.
type Sparse struct {
	elems []element // sorted by base, no zero words
}

// New returns an empty set. Provided for symmetry; new(Sparse) and a zero
// Sparse value work equally well.
func New() *Sparse { return &Sparse{} }

// Of returns a set containing exactly the given IDs.
func Of(ids ...uint32) *Sparse {
	s := New()
	for _, id := range ids {
		s.Set(id)
	}
	return s
}

// find returns the index of the element with the given base, or the index
// where it would be inserted.
func (s *Sparse) find(base uint32) int {
	return sort.Search(len(s.elems), func(i int) bool { return s.elems[i].base >= base })
}

// Set inserts id into the set. It reports whether the set changed. Set
// works in place, so it must not be called on a set from inside that
// set's own ForEach callback.
func (s *Sparse) Set(id uint32) bool {
	base := id &^ (wordBits - 1)
	bit := uint64(1) << (id % wordBits)
	i := s.find(base)
	if i < len(s.elems) && s.elems[i].base == base {
		if s.elems[i].word&bit != 0 {
			return false
		}
		s.elems[i].word |= bit
		return true
	}
	s.elems = append(s.elems, element{})
	copy(s.elems[i+1:], s.elems[i:])
	s.elems[i] = element{base: base, word: bit}
	return true
}

// Clear removes id from the set. It reports whether the set changed.
func (s *Sparse) Clear(id uint32) bool {
	base := id &^ (wordBits - 1)
	bit := uint64(1) << (id % wordBits)
	i := s.find(base)
	if i >= len(s.elems) || s.elems[i].base != base || s.elems[i].word&bit == 0 {
		return false
	}
	s.elems[i].word &^= bit
	if s.elems[i].word == 0 {
		s.elems = append(s.elems[:i], s.elems[i+1:]...)
	}
	return true
}

// Has reports whether id is in the set.
func (s *Sparse) Has(id uint32) bool {
	base := id &^ (wordBits - 1)
	i := s.find(base)
	return i < len(s.elems) && s.elems[i].base == base && s.elems[i].word&(1<<(id%wordBits)) != 0
}

// IsEmpty reports whether the set has no members.
func (s *Sparse) IsEmpty() bool { return len(s.elems) == 0 }

// Len returns the number of members.
func (s *Sparse) Len() int {
	n := 0
	for _, e := range s.elems {
		n += bits.OnesCount64(e.word)
	}
	return n
}

// Words returns the number of 64-bit chunks backing the set, a proxy for
// its memory footprint used by the solver statistics.
func (s *Sparse) Words() int { return len(s.elems) }

// Min returns the smallest member. It panics on an empty set.
func (s *Sparse) Min() uint32 {
	if len(s.elems) == 0 {
		panic("bitset: Min of empty Sparse")
	}
	e := s.elems[0]
	return e.base + uint32(bits.TrailingZeros64(e.word))
}

// Single returns (id, true) if the set has exactly one member.
func (s *Sparse) Single() (uint32, bool) {
	if len(s.elems) != 1 {
		return 0, false
	}
	w := s.elems[0].word
	if w&(w-1) != 0 {
		return 0, false
	}
	return s.elems[0].base + uint32(bits.TrailingZeros64(w)), true
}

// Copy replaces the contents of s with those of t.
func (s *Sparse) Copy(t *Sparse) {
	s.elems = append(s.elems[:0], t.elems...)
}

// Clone returns a fresh set with the same members.
func (s *Sparse) Clone() *Sparse {
	c := New()
	c.Copy(s)
	return c
}

// Equal reports whether s and t have the same members.
func (s *Sparse) Equal(t *Sparse) bool {
	if len(s.elems) != len(t.elems) {
		return false
	}
	for i, e := range s.elems {
		if t.elems[i] != e {
			return false
		}
	}
	return true
}

// UnionWith adds all members of t to s, reporting whether s changed.
// This is the meet operator of the points-to analysis and the meld
// operator of the labelling: commutative, associative, idempotent, with
// the empty set as identity.
//
// The union is computed in place, like LLVM's SparseBitVector::operator|=:
// a union that adds no new 64-bit chunk allocates nothing, and one that
// does grows s at most once. Because s is rewritten in place, UnionWith
// must not be called on a set from inside that set's own ForEach callback.
func (s *Sparse) UnionWith(t *Sparse) bool {
	if len(t.elems) == 0 {
		return false
	}
	if len(s.elems) == 0 {
		s.elems = append(s.elems[:0], t.elems...)
		return true
	}
	// Pass 1: OR the words of shared bases in place and count the bases
	// of t that s lacks.
	se, te := s.elems, t.elems
	changed := false
	missing := 0
	i, j := 0, 0
	for i < len(se) && j < len(te) {
		switch a, b := se[i].base, te[j].base; {
		case a < b:
			i++
		case a > b:
			missing++
			j++
		default:
			if m := se[i].word | te[j].word; m != se[i].word {
				se[i].word = m
				changed = true
			}
			i++
			j++
		}
	}
	missing += len(te) - j
	if missing == 0 {
		return changed
	}
	// Pass 2: grow once, then merge the missing elements in from the back,
	// so each element of s moves at most once. The loop stops once every
	// missing element is placed (k == i): the rest of s is then in place.
	n := len(se)
	out := slices.Grow(se, missing)[:n+missing]
	k := len(out) - 1
	i, j = n-1, len(te)-1
	for k > i {
		if i >= 0 && out[i].base >= te[j].base {
			if out[i].base == te[j].base {
				j-- // shared base, already ORed in pass 1
			}
			out[k] = out[i]
			i--
		} else {
			out[k] = te[j]
			j--
		}
		k--
	}
	s.elems = out
	return true
}

// setUnion replaces s with a ∪ b, reusing s's storage, and reports
// whether b has a member a lacks and whether a has one b lacks. s must
// be neither a nor b.
func (s *Sparse) setUnion(a, b *Sparse) (bAdds, aAdds bool) {
	out := s.elems[:0]
	ae, be := a.elems, b.elems
	i, j := 0, 0
	for i < len(ae) && j < len(be) {
		switch x, y := ae[i], be[j]; {
		case x.base < y.base:
			out = append(out, x)
			aAdds = true
			i++
		case x.base > y.base:
			out = append(out, y)
			bAdds = true
			j++
		default:
			m := x.word | y.word
			aAdds = aAdds || m != y.word
			bAdds = bAdds || m != x.word
			out = append(out, element{base: x.base, word: m})
			i++
			j++
		}
	}
	aAdds = aAdds || i < len(ae)
	bAdds = bAdds || j < len(be)
	out = append(out, ae[i:]...)
	s.elems = append(out, be[j:]...)
	return bAdds, aAdds
}

// setDiff replaces s with a \ b, reusing s's storage, and reports
// whether any member of a was removed. s may be a, since it writes no
// element before reading it, but not b.
func (s *Sparse) setDiff(a, b *Sparse) bool {
	out := s.elems[:0]
	removed := false
	i, j := 0, 0
	for i < len(a.elems) && j < len(b.elems) {
		switch x, y := a.elems[i], b.elems[j]; {
		case x.base < y.base:
			out = append(out, x)
			i++
		case x.base > y.base:
			j++
		default:
			if m := x.word &^ y.word; m != x.word {
				removed = true
				if m != 0 {
					out = append(out, element{base: x.base, word: m})
				}
			} else {
				out = append(out, x)
			}
			i++
			j++
		}
	}
	s.elems = append(out, a.elems[i:]...)
	return removed
}

// IntersectWith removes members of s not in t, reporting whether s changed.
func (s *Sparse) IntersectWith(t *Sparse) bool {
	changed := false
	out := s.elems[:0]
	i, j := 0, 0
	for i < len(s.elems) && j < len(t.elems) {
		a, b := s.elems[i], t.elems[j]
		switch {
		case a.base < b.base:
			changed = true
			i++
		case a.base > b.base:
			j++
		default:
			m := a.word & b.word
			if m != a.word {
				changed = true
			}
			if m != 0 {
				out = append(out, element{base: a.base, word: m})
			}
			i++
			j++
		}
	}
	if i < len(s.elems) {
		changed = true
	}
	s.elems = out
	return changed
}

// DifferenceWith removes members of t from s, reporting whether s changed.
func (s *Sparse) DifferenceWith(t *Sparse) bool { return s.setDiff(s, t) }

// Intersects reports whether s and t share at least one member.
func (s *Sparse) Intersects(t *Sparse) bool {
	i, j := 0, 0
	for i < len(s.elems) && j < len(t.elems) {
		a, b := s.elems[i], t.elems[j]
		switch {
		case a.base < b.base:
			i++
		case a.base > b.base:
			j++
		default:
			if a.word&b.word != 0 {
				return true
			}
			i++
			j++
		}
	}
	return false
}

// SubsetOf reports whether every member of s is in t.
func (s *Sparse) SubsetOf(t *Sparse) bool {
	i, j := 0, 0
	for i < len(s.elems) {
		if j >= len(t.elems) {
			return false
		}
		a, b := s.elems[i], t.elems[j]
		switch {
		case a.base < b.base:
			return false
		case a.base > b.base:
			j++
		default:
			if a.word&^b.word != 0 {
				return false
			}
			i++
			j++
		}
	}
	return true
}

// ForEach calls f on every member in ascending order. f must not mutate
// s (Set, Clear, UnionWith, Copy, ...): every mutation works in place on
// the storage the loop is walking. To grow a set while visiting it,
// iterate a Clone.
func (s *Sparse) ForEach(f func(uint32)) {
	for _, e := range s.elems {
		w := e.word
		for w != 0 {
			f(e.base + uint32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}

// AppendTo appends the members in ascending order to dst.
func (s *Sparse) AppendTo(dst []uint32) []uint32 {
	s.ForEach(func(id uint32) { dst = append(dst, id) })
	return dst
}

// Slice returns the members in ascending order.
func (s *Sparse) Slice() []uint32 {
	if len(s.elems) == 0 {
		return nil
	}
	return s.AppendTo(make([]uint32, 0, s.Len()))
}

// Hash returns an FNV-1a style hash of the contents, suitable for
// interning.
func (s *Sparse) Hash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, e := range s.elems {
		h ^= uint64(e.base)
		h *= prime
		h ^= e.word
		h *= prime
	}
	return h
}

// String renders the set as {a, b, c}.
func (s *Sparse) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(id uint32) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", id)
	})
	b.WriteByte('}')
	return b.String()
}
