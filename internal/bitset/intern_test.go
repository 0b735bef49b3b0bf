package bitset

import "testing"

func TestInternEmptyIsZero(t *testing.T) {
	in := NewInterner()
	if got := in.Canon(New()); got != in.Get(0) || !got.IsEmpty() {
		t.Fatalf("Canon(∅) = %v, want the empty set stored under ID 0", got)
	}
	if in.Len() != 1 {
		t.Fatalf("Len = %d after canonicalising only ∅, want 1", in.Len())
	}
}

func TestInternDeduplicates(t *testing.T) {
	in := NewInterner()
	a := in.Canon(Of(1, 2, 300))
	if b := in.Canon(Of(1, 2, 300)); a != b {
		t.Fatalf("equal contents have different canonical sets %p and %p", a, b)
	}
	if c := in.Canon(Of(1, 2, 301)); c == a {
		t.Fatal("different contents share a canonical set")
	}
	if got := in.Get(1); got != a || !got.Equal(Of(1, 2, 300)) {
		t.Fatalf("Get(1) = %v, want {1, 2, 300}", got)
	}
}

// TestCanonReturnsStoredEqualSet: Canon of contents already seen
// returns the stored set itself, not the argument.
func TestCanonReturnsStoredEqualSet(t *testing.T) {
	in := NewInterner()
	stored := in.Canon(Of(1, 2, 300))
	if got := in.Canon(Of(300, 2, 1)); got != stored {
		t.Fatalf("Canon of seen contents = %p, want the stored set %p", got, stored)
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

// TestInternKeepsArgument: Intern returns the stored set for contents
// already seen, and for new contents stores a copy, so the caller's set
// stays its own to mutate.
func TestInternKeepsArgument(t *testing.T) {
	in := NewInterner()
	stored := in.Canon(Of(1, 2, 300))
	if got := in.Intern(Of(300, 2, 1)); got != stored {
		t.Fatalf("Intern of seen contents = %p, want the stored set %p", got, stored)
	}
	mine := Of(7, 8)
	got := in.Intern(mine)
	if got == mine || !got.Equal(mine) {
		t.Fatalf("Intern of new contents = %p %v, want a copy of %p %v", got, got, mine, mine)
	}
	mine.Set(9)
	if !in.Get(2).Equal(Of(7, 8)) || in.Intern(Of(8, 7)) != got {
		t.Fatal("mutating the argument reached the stored copy")
	}
}
