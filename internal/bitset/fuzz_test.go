package bitset

import (
	"sort"
	"testing"
)

// decodeOps replays a byte string as a mutation history over two sets,
// mirroring every step in map models. Three bytes per op: opcode, then
// a big-endian 16-bit ID, so chunks well past the first word get
// exercised.
func decodeOps(data []byte) (a, b *Sparse, ma, mb map[uint32]bool) {
	a, b = New(), New()
	ma, mb = map[uint32]bool{}, map[uint32]bool{}
	for i := 0; i+2 < len(data); i += 3 {
		id := uint32(data[i+1])<<8 | uint32(data[i+2])
		switch data[i] % 4 {
		case 0:
			a.Set(id)
			ma[id] = true
		case 1:
			a.Clear(id)
			delete(ma, id)
		case 2:
			b.Set(id)
			mb[id] = true
		case 3:
			b.Clear(id)
			delete(mb, id)
		}
	}
	return a, b, ma, mb
}

func fromModel(m map[uint32]bool) *Sparse {
	s := New()
	for id := range m {
		s.Set(id)
	}
	return s
}

func sortedIDs(m map[uint32]bool) []uint32 {
	ids := make([]uint32, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// FuzzSparseLaws checks the algebraic laws the solvers lean on against
// a map model: membership, the union/intersect/difference triangle,
// subset/intersects consistency, Min/Single/Len, and Hash/Equal
// agreement for sets built by different mutation histories.
func FuzzSparseLaws(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 2, 0, 1, 1, 0, 1})
	f.Add([]byte{0, 0, 63, 0, 0, 64, 2, 0, 64, 1, 0, 63, 3, 0, 64})
	f.Add([]byte{0, 3, 232, 2, 3, 232, 0, 0, 10, 2, 0, 200, 1, 3, 232})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b, ma, mb := decodeOps(data)

		// Membership, cardinality, and ascending iteration.
		if a.Len() != len(ma) {
			t.Fatalf("Len = %d, model has %d", a.Len(), len(ma))
		}
		want := sortedIDs(ma)
		got := a.Slice()
		if len(got) != len(want) {
			t.Fatalf("Slice = %v, model %v", got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Slice[%d] = %d, model %d", i, got[i], want[i])
			}
		}
		for _, id := range want {
			if !a.Has(id) {
				t.Fatalf("Has(%d) = false, model has it", id)
			}
		}

		// Min and Single.
		if len(want) > 0 && a.Min() != want[0] {
			t.Fatalf("Min = %d, model %d", a.Min(), want[0])
		}
		if id, ok := a.Single(); ok != (len(want) == 1) || (ok && id != want[0]) {
			t.Fatalf("Single = (%d, %v), model %v", id, ok, want)
		}

		// Union / intersection / difference against the model.
		union, inter, diff := a.Clone(), a.Clone(), a.Clone()
		union.UnionWith(b)
		inter.IntersectWith(b)
		diff.DifferenceWith(b)
		mu, mi, md := map[uint32]bool{}, map[uint32]bool{}, map[uint32]bool{}
		for id := range ma {
			mu[id] = true
			if mb[id] {
				mi[id] = true
			} else {
				md[id] = true
			}
		}
		for id := range mb {
			mu[id] = true
		}
		for name, pair := range map[string][2]*Sparse{
			"union":      {union, fromModel(mu)},
			"intersect":  {inter, fromModel(mi)},
			"difference": {diff, fromModel(md)},
		} {
			if !pair[0].Equal(pair[1]) {
				t.Fatalf("%s = %v, model %v", name, pair[0], pair[1])
			}
		}

		// Inclusion–exclusion and the recomposition identity
		// (A\B) ∪ (A∩B) = A.
		if union.Len() != a.Len()+b.Len()-inter.Len() {
			t.Fatalf("|A∪B| = %d, want |A|+|B|-|A∩B| = %d",
				union.Len(), a.Len()+b.Len()-inter.Len())
		}
		recomposed := diff.Clone()
		recomposed.UnionWith(inter)
		if !recomposed.Equal(a) {
			t.Fatalf("(A\\B) ∪ (A∩B) = %v, want A = %v", recomposed, a)
		}

		// Predicate consistency with the derived sets.
		if a.SubsetOf(b) != diff.IsEmpty() {
			t.Fatalf("SubsetOf = %v, but A\\B = %v", a.SubsetOf(b), diff)
		}
		if a.Intersects(b) != !inter.IsEmpty() {
			t.Fatalf("Intersects = %v, but A∩B = %v", a.Intersects(b), inter)
		}

		// Hash/Equal agreement: the same contents reached by a fresh
		// reverse-order build must be Equal with an equal Hash.
		rebuilt := New()
		for i := len(want) - 1; i >= 0; i-- {
			rebuilt.Set(want[i])
		}
		if !rebuilt.Equal(a) || rebuilt.Hash() != a.Hash() {
			t.Fatalf("rebuild of %v is not Hash/Equal-identical", want)
		}

		// Copy replaces any prior contents, including wider ones.
		dst := union.Clone()
		dst.Copy(a)
		if !dst.Equal(a) {
			t.Fatalf("Copy onto wider destination = %v, want %v", dst, a)
		}
	})
}

// FuzzUnionInPlace checks the in-place UnionWith against the map model
// on destinations that reach its different paths: a plain clone, a
// clone left with spare capacity by a Clear that compacted a word away
// (so growth reuses stale storage), and the set itself. For each, the
// result must match the model, the source must be unchanged, the return
// value must be !src ⊆ dst-before.
func FuzzUnionInPlace(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 2, 0, 2, 2, 1, 0})
	f.Add([]byte{0, 0, 1, 0, 0, 200, 2, 0, 100, 2, 1, 0, 2, 0, 1})
	f.Add([]byte{0, 0, 5, 0, 1, 5, 0, 2, 5, 2, 0, 70, 2, 1, 70, 2, 3, 70})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b, _, _ := decodeOps(data)
		bBefore := b.Clone()

		check := func(name string, dst, src *Sparse) {
			t.Helper()
			before := dst.Clone()
			model := map[uint32]bool{}
			before.ForEach(func(id uint32) { model[id] = true })
			src.ForEach(func(id uint32) { model[id] = true })

			changed := dst.UnionWith(src)

			if want := fromModel(model); !dst.Equal(want) {
				t.Fatalf("%s: union = %v, model %v", name, dst, want)
			}
			if want := !src.SubsetOf(before); changed != want {
				t.Fatalf("%s: UnionWith = %v, want !src.SubsetOf(before) = %v", name, changed, want)
			}
		}

		check("clone", a.Clone(), b)

		// Clear members of a clone until a word compacts away, leaving
		// spare capacity (and a stale element) behind the slice's end.
		spare := a.Clone()
		for _, id := range a.Slice() {
			words := spare.Words()
			spare.Clear(id)
			if spare.Words() < words {
				break
			}
		}
		check("spare-capacity", spare, b)

		self := a.Clone()
		check("self", self, self)
		if !self.Equal(a) {
			t.Fatalf("self-union changed the set: %v, want %v", self, a)
		}

		if !b.Equal(bBefore) {
			t.Fatalf("union mutated its source: %v, want %v", b, bBefore)
		}
	})
}

// FuzzInternerStability checks Canon against the same op decoder:
// equal contents always share one canonical set and distinct contents
// never do, each canonical set keeps its contents and its ID, Len counts
// distinct contents, new contents are adopted under the next ID, and
// mutating a set the caller kept never disturbs the table.
func FuzzInternerStability(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 2, 0, 1})
	f.Add([]byte{0, 1, 0, 0, 2, 0, 2, 1, 0, 2, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b, _, _ := decodeOps(data)
		in := NewInterner()

		ca, cb := in.Canon(a.Clone()), in.Canon(b.Clone())
		if (ca == cb) != a.Equal(b) {
			t.Fatalf("canonical sets shared = %v, but Equal = %v", ca == cb, a.Equal(b))
		}
		if !ca.Equal(a) || !cb.Equal(b) {
			t.Fatal("a canonical set does not keep its contents")
		}
		ida, idb := idOf(t, in, ca), idOf(t, in, cb)

		// Mutate the caller's own set; the canonical set and its ID for
		// the original contents must both survive.
		snapshot := a.Clone()
		a.Set(60000)
		a.Clear(0)
		if !in.Get(ida).Equal(snapshot) {
			t.Fatalf("canonical set changed after a caller's mutation: %v vs %v",
				in.Get(ida), snapshot)
		}
		if got := in.Canon(snapshot.Clone()); got != ca {
			t.Fatalf("Canon of the original contents = %p, want %p", got, ca)
		}

		// Canon is idempotent per contents and Len counts distinct
		// contents only (+1 for the preassigned empty set).
		if got := in.Canon(b.Clone()); got != cb {
			t.Fatalf("Canon of b again = %p, want %p", got, cb)
		}
		wantLen := 1
		if !snapshot.IsEmpty() {
			wantLen++
		}
		if !b.IsEmpty() && !b.Equal(snapshot) {
			wantLen++
		}
		if in.Len() != wantLen {
			t.Fatalf("Len = %d after two sets, want %d", in.Len(), wantLen)
		}

		// New contents are adopted under the next ID; earlier IDs keep
		// their sets.
		c := a.Clone()
		fresh := in.Len()
		isNew := !c.Equal(snapshot) && !c.Equal(b) && !c.IsEmpty()
		canon := in.Canon(c)
		if isNew != (canon == c) {
			t.Fatalf("Canon adopted the argument = %v, want %v", canon == c, isNew)
		}
		if isNew && in.Get(uint32(fresh)) != c {
			t.Fatalf("new contents are not stored under ID %d", fresh)
		}
		if in.Get(ida) != ca || in.Get(idb) != cb || !ca.Equal(snapshot) {
			t.Fatal("a later Canon disturbed an earlier ID")
		}
	})
}

// idOf returns the ID under which in stores the canonical set c.
func idOf(t *testing.T, in *Interner, c *Sparse) uint32 {
	t.Helper()
	for id := range in.Len() {
		if in.Get(uint32(id)) == c {
			return uint32(id)
		}
	}
	t.Fatalf("canonical set %v is stored under no ID", c)
	return 0
}
