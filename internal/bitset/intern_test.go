package bitset

import "testing"

func TestInternEmptyIsZero(t *testing.T) {
	in := NewInterner()
	if got := in.Intern(New()); got != 0 {
		t.Fatalf("Intern(∅) = %d, want 0 (the meld identity ε)", got)
	}
	if in.Len() != 1 {
		t.Fatalf("Len = %d after interning only ∅, want 1", in.Len())
	}
}

func TestInternDeduplicates(t *testing.T) {
	in := NewInterner()
	a := in.Intern(Of(1, 2, 300))
	b := in.Intern(Of(1, 2, 300))
	if a != b {
		t.Fatalf("equal contents interned to different IDs %d and %d", a, b)
	}
	c := in.Intern(Of(1, 2, 301))
	if c == a {
		t.Fatalf("different contents interned to the same ID %d", c)
	}
	if got := in.Get(a); !got.Equal(Of(1, 2, 300)) {
		t.Fatalf("Get(%d) = %v, want {1, 2, 300}", a, got)
	}
}

// TestInternPostMutationSafety pins the contract the Intern doc comment
// states: Intern stores a clone, so mutating the argument afterwards —
// including growing it, clearing it, and re-interning it — cannot
// corrupt the canonical set behind the assigned ID.
func TestInternPostMutationSafety(t *testing.T) {
	in := NewInterner()
	s := Of(5, 70, 700)
	id := in.Intern(s)

	s.Set(9000)
	s.Clear(5)
	if got := in.Get(id); !got.Equal(Of(5, 70, 700)) {
		t.Fatalf("canonical set corrupted by post-intern mutation: Get(%d) = %v", id, got)
	}

	// The mutated value is new content and must intern to a fresh ID;
	// the original content must still resolve to the original ID.
	id2 := in.Intern(s)
	if id2 == id {
		t.Fatalf("mutated set interned to the old ID %d", id)
	}
	if got := in.Intern(Of(5, 70, 700)); got != id {
		t.Fatalf("original contents re-interned to %d, want %d", got, id)
	}

	// Draining the argument entirely must not drain the canonical sets.
	s.Clear(9000)
	s.Clear(70)
	s.Clear(700)
	if !s.IsEmpty() {
		t.Fatalf("test bug: s should be empty, got %v", s)
	}
	if got := in.Get(id2); !got.Equal(Of(70, 700, 9000)) {
		t.Fatalf("canonical set for %d corrupted by draining the argument: %v", id2, got)
	}
	if got := in.Intern(s); got != 0 {
		t.Fatalf("Intern(drained) = %d, want 0", got)
	}
}

// TestCanonReturnsStoredEqualSet: Canon of contents already seen, by
// Intern or by Canon, returns the stored set itself, not the argument.
func TestCanonReturnsStoredEqualSet(t *testing.T) {
	in := NewInterner()
	id := in.Intern(Of(1, 2, 300))
	if got := in.Canon(Of(300, 2, 1)); got != in.Get(id) {
		t.Fatalf("Canon of interned contents = %p, want the stored set %p", got, in.Get(id))
	}
	first := Of(7, 8)
	if got := in.Canon(first); got != first {
		t.Fatalf("Canon of new contents = %p, want the argument %p", got, first)
	}
	if got := in.Canon(Of(8, 7)); got != first {
		t.Fatalf("second Canon of {7, 8} = %p, want the first caller's set %p", got, first)
	}
	if got := in.Canon(New()); got != in.Get(0) {
		t.Fatal("Canon(∅) is not the interner's empty set ε")
	}
	if in.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (ε, {1, 2, 300}, {7, 8})", in.Len())
	}
}

// TestCanonAdoptsWithoutCopying: new contents are stored as the
// argument's own storage, so canonicalising allocates no set elements
// and leaves the allocation clock the guard layer reads unchanged.
func TestCanonAdoptsWithoutCopying(t *testing.T) {
	in := NewInterner()
	sets := []*Sparse{Of(1, 64, 128, 5000), Of(1, 64, 128, 5000), Of(2), Of(2), New()}
	before := AllocatedWords()
	for _, s := range sets {
		in.Canon(s)
	}
	if got := AllocatedWords() - before; got != 0 {
		t.Fatalf("Canon allocated %d words, want 0", got)
	}
	if got := in.Get(1); got != sets[0] || &got.elems[0] != &sets[0].elems[0] {
		t.Fatal("Canon stored a copy of new contents instead of adopting them")
	}
}
