package core

import (
	"testing"

	"vsfs/internal/bitset"
	"vsfs/internal/checker"
	"vsfs/internal/ir"
	"vsfs/internal/workload"
)

// TestSolvedSetsShared checks the sets the main phase's store hands
// its Result, on every profile: equal version, top-level and summary
// contents are one shared set (as many distinct pointers as distinct
// contents), StoredSets and StoredWords count the distinct version
// sets, and no query — the checker suite, ConsumedSet, YieldedSet,
// PointsTo and ObjectSummary — mutates a shared set.
func TestSolvedSetsShared(t *testing.T) {
	for _, p := range workload.Profiles() {
		t.Run(p.Name, func(t *testing.T) {
			if testing.Short() && largestProfiles[p.Name] {
				t.Skip("largest profiles skipped under -short")
			}
			g := profileGraph(t, p.Name)
			r := Solve(g)

			// Canon returns its argument exactly when no equal set came
			// before it, so any other answer is an equal set stored apart.
			// The interner owns its own ∅, so empty sets are compared to
			// the first one seen instead.
			in := bitset.NewInterner()
			hashes := make(map[*bitset.Sparse]uint64)
			var none *bitset.Sparse
			record := func(kind string, set *bitset.Sparse) {
				switch {
				case set == nil:
					return
				case set.IsEmpty():
					if none == nil {
						none = set
					}
					if set != none {
						t.Fatalf("%s set ∅ is stored twice", kind)
					}
				case in.Canon(set) != set:
					t.Fatalf("%s set %v is stored twice", kind, set)
				}
				hashes[set] = set.Hash()
			}
			for _, set := range r.ptv {
				record("version", set)
			}
			stored, words := len(hashes), 0
			for set := range hashes {
				words += set.Words()
			}
			if stored != r.Stats.StoredSets || words != r.Stats.StoredWords {
				t.Fatalf("StoredSets/StoredWords = %d/%d, want %d/%d",
					r.Stats.StoredSets, r.Stats.StoredWords, stored, words)
			}
			if r.Stats.StoredSets > r.Stats.PtsSets {
				t.Fatalf("StoredSets %d > PtsSets %d", r.Stats.StoredSets, r.Stats.PtsSets)
			}
			// PointsTo answers a pointer with no set with a stand-in ∅,
			// which is also its answer past the last value.
			unset := r.PointsTo(ir.ID(g.Prog.NumValues() + 1))
			for v := ir.ID(0); int(v) <= g.Prog.NumValues(); v++ {
				if set := r.PointsTo(v); set != unset {
					record("top-level", set)
				}
			}
			for o := range ir.Obj(g.Prog.NumObjects()) {
				if set := r.ObjectSummary(o); !set.IsEmpty() {
					record("summary", set)
				}
			}

			prog := g.Prog
			for range 2 {
				checker.MemorySafety(prog, r)
			}
			for sl := range g.NumSlots() {
				l, o := g.SlotNode(sl), g.SlotObj(sl)
				r.ConsumedSet(l, o)
				r.YieldedSet(l, o)
			}
			for v := ir.ID(1); int(v) < prog.NumValues(); v++ {
				r.PointsTo(v)
			}
			for o := range ir.Obj(prog.NumObjects()) {
				r.ObjectSummary(o)
			}
			for set, h := range hashes {
				if set.Hash() != h {
					t.Fatalf("a query mutated the shared set now holding %v", set)
				}
			}
		})
	}
}
