package memssa

import (
	"testing"

	"vsfs/internal/andersen"
	"vsfs/internal/bitset"
	"vsfs/internal/workload"
)

// TestSolvedSetsShared: on every profile, equal μ and χ contents are one
// shared set — as many distinct pointers as distinct contents — so the
// loads and stores through equal pointers and the MEMPHIs of one object
// keep no copies. Building the form leaves each set as annotate made it.
func TestSolvedSetsShared(t *testing.T) {
	for _, p := range workload.Profiles() {
		t.Run(p.Name, func(t *testing.T) {
			if testing.Short() && largestProfiles[p.Name] {
				t.Skip("largest profiles skipped under -short")
			}
			prog := p.Build()
			r := Build(prog, andersen.Analyze(prog))
			// Canon returns its argument exactly when no equal set came
			// before it; the interner owns its own ∅, so empty sets are
			// compared to the first one seen instead.
			in := bitset.NewInterner()
			var none *bitset.Sparse
			held := 0
			for _, sets := range [2][]*bitset.Sparse{r.Mu, r.Chi} {
				for l, set := range sets {
					switch {
					case set == nil:
					case set.IsEmpty():
						if none == nil {
							none = set
						}
						if set != none {
							t.Fatalf("label %d: ∅ stored twice", l)
						}
					default:
						if in.Canon(set) != set {
							t.Fatalf("label %d: %v stored twice", l, set)
						}
						held++
					}
				}
			}
			if distinct := in.Len() - 1; distinct >= held {
				t.Fatalf("%d non-empty μ/χ sets hold %d distinct contents: nothing shared", held, distinct)
			}
		})
	}
}
