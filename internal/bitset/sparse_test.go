package bitset

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestSetHasClear(t *testing.T) {
	s := New()
	if !s.IsEmpty() {
		t.Fatal("new set not empty")
	}
	ids := []uint32{0, 1, 63, 64, 65, 127, 128, 1000000, 4294967295}
	for _, id := range ids {
		if !s.Set(id) {
			t.Errorf("Set(%d) reported no change on first insert", id)
		}
		if s.Set(id) {
			t.Errorf("Set(%d) reported change on second insert", id)
		}
		if !s.Has(id) {
			t.Errorf("Has(%d) = false after Set", id)
		}
	}
	if got := s.Len(); got != len(ids) {
		t.Errorf("Len = %d, want %d", got, len(ids))
	}
	if got := s.Min(); got != 0 {
		t.Errorf("Min = %d, want 0", got)
	}
	for _, id := range ids {
		if !s.Clear(id) {
			t.Errorf("Clear(%d) reported no change", id)
		}
		if s.Clear(id) {
			t.Errorf("Clear(%d) reported change on second clear", id)
		}
		if s.Has(id) {
			t.Errorf("Has(%d) = true after Clear", id)
		}
	}
	if !s.IsEmpty() {
		t.Error("set not empty after clearing all")
	}
	if s.Words() != 0 {
		t.Errorf("Words = %d after clearing all, want 0", s.Words())
	}
}

func TestHasOnMissingChunk(t *testing.T) {
	s := Of(1000)
	if s.Has(2000) || s.Has(5) {
		t.Error("Has reported membership for absent chunk")
	}
}

func TestMinPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Min on empty set did not panic")
		}
	}()
	New().Min()
}

func TestSingle(t *testing.T) {
	if _, ok := New().Single(); ok {
		t.Error("Single true on empty set")
	}
	if id, ok := Of(42).Single(); !ok || id != 42 {
		t.Errorf("Single on {42} = (%d, %v)", id, ok)
	}
	if _, ok := Of(42, 43).Single(); ok {
		t.Error("Single true on 2-element same-word set")
	}
	if _, ok := Of(42, 420).Single(); ok {
		t.Error("Single true on 2-element cross-word set")
	}
}

func TestUnionWith(t *testing.T) {
	a := Of(1, 2, 3, 200)
	b := Of(3, 4, 100)
	if !a.UnionWith(b) {
		t.Error("UnionWith reported no change")
	}
	want := []uint32{1, 2, 3, 4, 100, 200}
	if got := a.Slice(); !equalIDs(got, want) {
		t.Errorf("union = %v, want %v", got, want)
	}
	if a.UnionWith(b) {
		t.Error("second UnionWith reported change")
	}
	// Union into empty.
	c := New()
	if !c.UnionWith(a) || !c.Equal(a) {
		t.Error("union into empty set failed")
	}
	// Union with empty.
	if a.UnionWith(New()) {
		t.Error("union with empty set reported change")
	}
}

func TestIntersectWith(t *testing.T) {
	a := Of(1, 2, 3, 200, 300)
	b := Of(2, 3, 300, 400)
	if !a.IntersectWith(b) {
		t.Error("IntersectWith reported no change")
	}
	if got, want := a.Slice(), []uint32{2, 3, 300}; !equalIDs(got, want) {
		t.Errorf("intersection = %v, want %v", got, want)
	}
	if a.IntersectWith(b) {
		t.Error("second IntersectWith reported change")
	}
	a.IntersectWith(New())
	if !a.IsEmpty() {
		t.Error("intersection with empty not empty")
	}
}

func TestDifferenceWith(t *testing.T) {
	a := Of(1, 2, 3, 200, 300)
	b := Of(2, 300, 400)
	if !a.DifferenceWith(b) {
		t.Error("DifferenceWith reported no change")
	}
	if got, want := a.Slice(), []uint32{1, 3, 200}; !equalIDs(got, want) {
		t.Errorf("difference = %v, want %v", got, want)
	}
	if a.DifferenceWith(b) {
		t.Error("second DifferenceWith reported change")
	}
}

func TestIntersectsAndSubset(t *testing.T) {
	a := Of(1, 100, 1000)
	b := Of(100)
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Error("Intersects false on overlapping sets")
	}
	if a.Intersects(Of(2, 200)) {
		t.Error("Intersects true on disjoint sets")
	}
	if !b.SubsetOf(a) {
		t.Error("SubsetOf false for {100} ⊆ {1,100,1000}")
	}
	if a.SubsetOf(b) {
		t.Error("SubsetOf true for superset")
	}
	if !New().SubsetOf(b) {
		t.Error("empty not subset")
	}
	if !b.SubsetOf(b) {
		t.Error("set not subset of itself")
	}
	if Of(1).SubsetOf(New()) {
		t.Error("nonempty subset of empty")
	}
	// Same word, extra bit.
	if Of(1, 2).SubsetOf(Of(1)) {
		t.Error("{1,2} reported subset of {1}")
	}
}

func TestCloneCopyEqual(t *testing.T) {
	a := Of(5, 6, 7, 500)
	c := a.Clone()
	if !c.Equal(a) {
		t.Error("clone not equal")
	}
	c.Set(9)
	if c.Equal(a) {
		t.Error("mutated clone still equal")
	}
	var d Sparse
	d.Copy(a)
	if !d.Equal(a) {
		t.Error("copy not equal")
	}
	if a.Equal(Of(5, 6, 7)) {
		t.Error("sets of different length equal")
	}
	if Of(1).Equal(Of(2)) {
		t.Error("{1} equal {2}")
	}
}

func TestStringAndSlice(t *testing.T) {
	if got := Of(3, 1, 2).String(); got != "{1, 2, 3}" {
		t.Errorf("String = %q", got)
	}
	if got := New().String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
	if Of().Slice() != nil {
		t.Error("empty Slice not nil")
	}
}

func TestHashDistinguishes(t *testing.T) {
	if Of(1, 2).Hash() == Of(1, 3).Hash() {
		t.Error("hash collision on tiny distinct sets (suspicious)")
	}
	if Of(1, 2).Hash() != Of(2, 1).Hash() {
		t.Error("hash depends on insertion order")
	}
}

// model-based property tests against map[uint32]bool

type opSeq []opItem

type opItem struct {
	Op byte
	ID uint32
}

func (opSeq) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(200)
	ops := make(opSeq, n)
	for i := range ops {
		ops[i] = opItem{Op: byte(r.Intn(3)), ID: uint32(r.Intn(300))}
	}
	return reflect.ValueOf(ops)
}

func TestQuickModel(t *testing.T) {
	f := func(ops opSeq) bool {
		s := New()
		model := map[uint32]bool{}
		for _, op := range ops {
			switch op.Op {
			case 0:
				s.Set(op.ID)
				model[op.ID] = true
			case 1:
				s.Clear(op.ID)
				delete(model, op.ID)
			case 2:
				if s.Has(op.ID) != model[op.ID] {
					return false
				}
			}
		}
		if s.Len() != len(model) {
			return false
		}
		keys := make([]uint32, 0, len(model))
		for k := range model {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		return equalIDs(s.Slice(), keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickSetAlgebra(t *testing.T) {
	type pair struct{ A, B []uint16 }
	f := func(p pair) bool {
		a, b := fromU16(p.A), fromU16(p.B)

		// Union then difference/intersection laws.
		u := a.Clone()
		u.UnionWith(b)
		if !a.SubsetOf(u) || !b.SubsetOf(u) {
			return false
		}
		i := a.Clone()
		i.IntersectWith(b)
		if !i.SubsetOf(a) || !i.SubsetOf(b) {
			return false
		}
		d := a.Clone()
		d.DifferenceWith(b)
		if d.Intersects(b) {
			return false
		}
		// d ∪ i == a
		di := d.Clone()
		di.UnionWith(i)
		if !di.Equal(a) {
			return false
		}
		// Union commutative.
		u2 := b.Clone()
		u2.UnionWith(a)
		if !u2.Equal(u) {
			return false
		}
		// Idempotent.
		u3 := u.Clone()
		if u3.UnionWith(u) {
			return false
		}
		// Hash agreement on equal contents.
		return u2.Hash() == u.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func fromU16(xs []uint16) *Sparse {
	s := New()
	for _, x := range xs {
		s.Set(uint32(x))
	}
	return s
}

func equalIDs(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestInterner(t *testing.T) {
	in := NewInterner()
	if got := in.Canon(New()); got != in.Get(0) {
		t.Errorf("empty set canonicalised to %v, not ID 0's set", got)
	}
	a := in.Canon(Of(1, 2, 3))
	if b := in.Canon(Of(3, 2, 1)); a != b {
		t.Errorf("equal contents canonicalised to %p and %p", a, b)
	}
	if c := in.Canon(Of(1, 2)); c == a {
		t.Error("distinct contents canonicalised to the same set")
	}
	if got := in.Get(1); got != a || !got.Equal(Of(1, 2, 3)) {
		t.Errorf("Get(1) = %v", got)
	}
	if in.Len() != 3 {
		t.Errorf("Len = %d, want 3", in.Len())
	}
	// Mutating a set the caller kept, equal to a stored one but not
	// handed over, must not corrupt the table.
	s := Of(1, 2, 3)
	in.Canon(s)
	s.Set(10)
	if !in.Get(1).Equal(Of(1, 2, 3)) {
		t.Error("stored set aliased a caller's storage")
	}
}

// unionCases returns a destination set and one source per UnionWith
// path: noop (a subset of dst), or-only (new bits in dst's existing
// words only), grow (some words dst lacks) and disjoint (only words dst
// lacks, interleaved with dst's).
type unionCase struct {
	name string
	src  *Sparse
}

func unionCases() (dst *Sparse, cases []unionCase) {
	r := rand.New(rand.NewSource(1))
	dst, noop, orOnly, grow, disjoint := New(), New(), New(), New(), New()
	for i := 0; i < 500; i++ {
		id := uint32(r.Intn(10000))
		even := id/64*128 + id%64 // dst lives in the even-numbered words
		dst.Set(even)
		disjoint.Set(even + 64)
		grow.Set(uint32(r.Intn(20000)))
	}
	dst.ForEach(func(id uint32) {
		if id%2 == 0 {
			noop.Set(id)
		}
		if id%64 != 63 && !dst.Has(id+1) {
			orOnly.Set(id + 1)
		}
	})
	return dst, []unionCase{{"noop", noop}, {"or-only", orOnly}, {"grow", grow}, {"disjoint", disjoint}}
}

// TestUnionWithAllocs guards the in-place union: a union that adds no
// new word must not allocate.
func TestUnionWithAllocs(t *testing.T) {
	dst, cases := unionCases()
	orig := dst.Clone()
	noop, orOnly := cases[0].src, cases[1].src
	if n := testing.AllocsPerRun(100, func() {
		if dst.UnionWith(noop) {
			t.Fatal("noop union reported a change")
		}
	}); n != 0 {
		t.Errorf("noop union: %v allocs per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if !dst.UnionWith(orOnly) {
			t.Fatal("or-only union reported no change")
		}
		// Undo in place (no word empties), so every run ORs again.
		dst.DifferenceWith(orOnly)
	}); n != 0 {
		t.Errorf("or-only union: %v allocs per run, want 0", n)
	}
	if !dst.Equal(orig) {
		t.Fatalf("destination drifted: %v, want %v", dst, orig)
	}
}

// BenchmarkUnionWith times one union per path. A union that changed the
// destination is undone with Copy, which reuses the destination's
// storage, so the timed loop allocates only what the union itself does.
func BenchmarkUnionWith(b *testing.B) {
	a, cases := unionCases()
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			d := a.Clone()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if d.UnionWith(c.src) {
					d.Copy(a)
				}
			}
		})
	}
}
