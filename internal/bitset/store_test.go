package bitset

import "testing"

// storeOp is one operation of a FuzzStoreLaws history: Insert(a, x),
// Union(a, b) or Diff(a, b), with a and b IDs the store returned earlier.
type storeOp struct {
	kind byte
	a, b uint32
	x    uint32
	r    uint32 // the ID the store answered
}

// FuzzStoreLaws replays a byte string as operations on a Store and
// checks each answer against the same operation on Sparse values: the
// ID's set has the model's contents, equal contents always have one ID,
// an immediate repeat is a memo hit with the same ID, and replaying the
// whole history afterwards, when the lossy memo has lost or kept any
// entry, gives every ID again. Words counts exactly the words of the
// sets the store keeps.
func FuzzStoreLaws(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 2, 1, 1, 2, 0, 2, 3, 1, 0})
	f.Add([]byte{0, 0, 1, 0, 0, 0, 0, 70, 1, 1, 2, 0, 2, 3, 2, 0, 2, 1, 3, 0, 1, 4, 4, 0})
	f.Add([]byte{0, 0, 250, 0, 0, 1, 3, 232, 1, 1, 2, 0, 1, 3, 1, 0, 2, 3, 2, 0, 2, 2, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		st := NewStore()
		ids := []uint32{0}
		owner := map[uint64][]uint32{New().Hash(): {0}} // content hash -> IDs seen with it
		var ops []storeOp

		// check fails t unless op.r holds want, and no other ID holds it.
		check := func(op storeOp, want *Sparse) {
			t.Helper()
			got := st.Get(op.r)
			if !got.Equal(want) {
				t.Fatalf("op %d(%d, %d, x=%d) = #%d %v, want %v", op.kind, op.a, op.b, op.x, op.r, got, want)
			}
			h := want.Hash()
			for _, id := range owner[h] {
				if id != op.r && st.Get(id).Equal(want) {
					t.Fatalf("contents %v have two IDs, %d and %d", want, id, op.r)
				}
			}
			owner[h] = append(owner[h], op.r)
		}
		apply := func(op storeOp) uint32 {
			switch op.kind {
			case 0:
				return st.Insert(op.a, op.x)
			case 1:
				return st.Union(op.a, op.b)
			}
			return st.Diff(op.a, op.b)
		}

		for i := 0; i+3 < len(data); i += 4 {
			op := storeOp{
				kind: data[i] % 3,
				a:    ids[int(data[i+1])%len(ids)],
				b:    ids[int(data[i+2])%len(ids)],
				x:    uint32(data[i+2])<<8 | uint32(data[i+3]),
			}
			want := st.Get(op.a).Clone()
			switch op.kind {
			case 0:
				want.Set(op.x)
			case 1:
				want.UnionWith(st.Get(op.b))
			case 2:
				want.DifferenceWith(st.Get(op.b))
			}
			op.r = apply(op)
			check(op, want)

			// A repeat answers the same ID; an operation past the fast
			// paths answers it from the memo.
			hits := st.Stats().MemoHits
			if r := apply(op); r != op.r {
				t.Fatalf("repeat of op %d(%d, %d) = %d, first answer %d", op.kind, op.a, op.b, r, op.r)
			}
			if memoised := op.kind != 0 && op.a != op.b && op.a != 0 && op.b != 0; memoised && st.Stats().MemoHits != hits+1 {
				t.Fatalf("repeat of op %d(%d, %d) missed the memo", op.kind, op.a, op.b)
			}
			ops = append(ops, op)
			ids = append(ids, op.r)
		}

		for _, op := range ops {
			if r := apply(op); r != op.r {
				t.Fatalf("replayed op %d(%d, %d, x=%d) = %d, first answer %d", op.kind, op.a, op.b, op.x, r, op.r)
			}
		}

		kept := 0
		for id := 1; id < st.Len(); id++ {
			kept += st.Get(uint32(id)).Words()
		}
		if st.Words() != kept {
			t.Fatalf("Words = %d, but the store keeps %d words", st.Words(), kept)
		}
	})
}

// TestStoreEmptyAndFastPaths pins the identities the solvers lean on:
// ∅ is ID 0, and a union or difference with ∅ or with itself, and an
// insertion of a member, answer an operand without computing anything.
func TestStoreEmptyAndFastPaths(t *testing.T) {
	st := NewStore()
	a := st.Insert(st.Insert(0, 3), 700)
	b := st.Insert(0, 700)
	if !st.Get(0).IsEmpty() || a == 0 || b == 0 || a == b {
		t.Fatalf("IDs ∅=0, a=%d, b=%d: want distinct non-zero IDs", a, b)
	}
	for _, c := range []struct {
		name      string
		got, want uint32
	}{
		{"a ∪ ∅", st.Union(a, 0), a},
		{"∅ ∪ a", st.Union(0, a), a},
		{"a ∪ a", st.Union(a, a), a},
		{"a \\ ∅", st.Diff(a, 0), a},
		{"∅ \\ a", st.Diff(0, a), 0},
		{"a \\ a", st.Diff(a, a), 0},
		{"a + 700", st.Insert(a, 700), a},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if s := st.Stats(); s.MemoHits+s.MemoMisses != 0 {
		t.Fatalf("fast paths reached the memo: %+v", s)
	}
	if st.Union(a, b) != a || st.Union(b, a) != a || st.Diff(b, a) != 0 || st.Diff(a, b) != st.Insert(0, 3) {
		t.Fatal("a superset's union or a subset's difference did not answer an existing ID")
	}
	if s := st.Stats(); s.Sets != 4 || s.MemoHits != 1 || s.MemoMisses != 3 {
		t.Fatalf("Stats = %+v, want 4 sets (∅, a, b, {3}), 1 hit (b ∪ a), 3 misses", s)
	}
}
