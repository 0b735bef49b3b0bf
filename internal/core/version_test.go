package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"vsfs/internal/andersen"
	"vsfs/internal/bitset"
	"vsfs/internal/guard"
	"vsfs/internal/ir"
	"vsfs/internal/meld"
	"vsfs/internal/memssa"
	"vsfs/internal/svfg"
	"vsfs/internal/workload"
)

// referenceVersioning is the textbook meld labelling of Section IV-C: a
// global FIFO fixpoint that re-melds a node's successors whenever its
// label grows. It is kept only as the oracle the one-pass labelling is
// checked against.
func referenceVersioning(g *svfg.Graph) *versioning {
	n := len(g.Prog.Instrs)
	v := newVersioning(n, meld.NewTable())
	work := &objWorklist{dirty: make(map[uint32]*bitset.Sparse)}
	for l := uint32(1); l < uint32(n); l++ {
		if g.Prog.Instrs[l].Op == ir.Store {
			g.MSSA.ChiOf(l).ForEach(func(o uint32) {
				v.setYield(l, ir.ID(o), v.tab.NewAtom())
				v.stats.Prelabels++
				work.push(l, ir.ID(o))
			})
		}
		if g.Delta[l] {
			g.MSSA.ChiOf(l).ForEach(func(o uint32) {
				v.setConsume(l, ir.ID(o), v.tab.NewAtom())
				v.stats.Prelabels++
				work.push(l, ir.ID(o))
			})
		}
	}
	for {
		l, objs, ok := work.pop()
		if !ok {
			break
		}
		v.stats.Iterations++
		in := g.Prog.Instrs[l]
		for _, o := range objs {
			// [INTERNAL]^V: non-store nodes yield what they consume.
			if in.Op != ir.Store {
				if cv := v.consumeOf(l, o); cv != meld.Epsilon && v.yieldOf(l, o) != cv {
					v.setYield(l, o, cv)
				}
			}
			yv := v.yieldOf(l, o)
			if yv == meld.Epsilon {
				continue
			}
			// [EXTERNAL]^V, except into δ nodes (frozen consume).
			for _, succ := range g.IndirSuccs(l, o) {
				if g.Delta[succ] {
					continue
				}
				old := v.consumeOf(succ, o)
				if melded := v.tab.Meld(old, yv); melded != old {
					v.setConsume(succ, o, melded)
					v.stats.MeldOps++
					work.push(succ, o)
				}
			}
		}
	}
	v.stats.DistinctVersions = v.tab.Distinct()
	v.countEntries()
	return v
}

// objWorklist is a FIFO over nodes carrying per-node dirty object sets.
type objWorklist struct {
	queue []uint32
	dirty map[uint32]*bitset.Sparse
}

func (w *objWorklist) push(n uint32, o ir.ID) {
	set := w.dirty[n]
	if set == nil {
		set = bitset.New()
		w.dirty[n] = set
		w.queue = append(w.queue, n)
	}
	set.Set(uint32(o))
}

func (w *objWorklist) pop() (uint32, []ir.ID, bool) {
	if len(w.queue) == 0 {
		return 0, nil, false
	}
	n := w.queue[0]
	w.queue = w.queue[1:]
	var objs []ir.ID
	w.dirty[n].ForEach(func(o uint32) { objs = append(objs, ir.ID(o)) })
	delete(w.dirty, n)
	return n, objs, true
}

// requireSamePartition asserts that two versionings induce the same
// (node, object) → version partition: the same consume and yield slots
// are materialised, and per object the map from one's versions to the
// other's is a bijection over both functions.
func requireSamePartition(t *testing.T, want, got *versioning) {
	t.Helper()
	if want.stats.Prelabels != got.stats.Prelabels {
		t.Fatalf("Prelabels: reference %d, got %d", want.stats.Prelabels, got.stats.Prelabels)
	}
	if want.stats.ConsumeEntries != got.stats.ConsumeEntries || want.stats.YieldEntries != got.stats.YieldEntries {
		t.Fatalf("entries: reference %d/%d, got %d/%d", want.stats.ConsumeEntries, want.stats.YieldEntries,
			got.stats.ConsumeEntries, got.stats.YieldEntries)
	}
	fwd := map[verKey]meld.Version{}
	bwd := map[verKey]meld.Version{}
	match := func(fn string, l int, wm, gm map[ir.ID]meld.Version) {
		if len(wm) != len(gm) {
			t.Fatalf("%s at node %d: reference has %d objects, got %d", fn, l, len(wm), len(gm))
		}
		for o, wv := range wm {
			gv, ok := gm[o]
			if !ok {
				t.Fatalf("%s at node %d: object %d missing", fn, l, o)
			}
			if prev, ok := fwd[verKey{o, wv}]; ok && prev != gv {
				t.Fatalf("%s at node %d, object %d: reference version %d maps to both %d and %d", fn, l, o, wv, prev, gv)
			}
			if prev, ok := bwd[verKey{o, gv}]; ok && prev != wv {
				t.Fatalf("%s at node %d, object %d: version %d maps back to both %d and %d", fn, l, o, gv, prev, wv)
			}
			fwd[verKey{o, wv}], bwd[verKey{o, gv}] = gv, wv
		}
	}
	for l := range want.consume {
		match("consume", l, want.consume[l], got.consume[l])
		match("yield", l, want.yield[l], got.yield[l])
	}
}

func profileGraph(t testing.TB, name string) *svfg.Graph {
	t.Helper()
	p := workload.ProfileByName(name)
	if p == nil {
		t.Fatalf("no profile %q", name)
	}
	prog := p.Build()
	aux := andersen.Analyze(prog)
	return svfg.Build(prog, aux, memssa.Build(prog, aux))
}

// largestProfiles are skipped under -short: their reference fixpoints
// take seconds each.
var largestProfiles = map[string]bool{"bash": true, "lynx": true, "hyriseConsole": true}

// TestVersioningMatchesReference pins the one-pass labelling to the
// FIFO fixpoint on every Table II profile and on random programs.
func TestVersioningMatchesReference(t *testing.T) {
	check := func(t *testing.T, g *svfg.Graph) {
		got, err := runVersioning(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		requireSamePartition(t, referenceVersioning(g), got)
		par, err := runVersioningParallel(context.Background(), g, 4, &parEngine{})
		if err != nil {
			t.Fatal(err)
		}
		requireSamePartition(t, got, par)
		// Labels never span objects and each object is labelled by the
		// same routine, so even the effort counters agree.
		seqStats, parStats := got.stats, par.stats
		seqStats.Duration, parStats.Duration = 0, 0
		if seqStats != parStats {
			t.Fatalf("stats: sequential %+v, parallel %+v", seqStats, parStats)
		}
	}
	for _, p := range workload.Profiles() {
		t.Run(p.Name, func(t *testing.T) {
			if testing.Short() && largestProfiles[p.Name] {
				t.Skip("largest profile; skipped under -short")
			}
			check(t, profileGraph(t, p.Name))
		})
	}
	for seed := int64(0); seed < 30; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			_, g := buildGraph(t, seed)
			check(t, g)
		})
	}
}

// TestVersioningGovernance: the sequential pre-analysis itself polls
// cancellation and charges the step budget, so both abort a bash
// versioning pass before it completes.
func TestVersioningGovernance(t *testing.T) {
	g := profileGraph(t, "bash")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if v, err := runVersioning(ctx, g); !errors.Is(err, context.Canceled) || v != nil {
		t.Fatalf("cancelled: versioning=%v err=%v, want nil and context.Canceled", v, err)
	}

	b := guard.NewBudget(8*cancelCheckInterval, 0, 0)
	v, err := runVersioning(guard.WithBudget(context.Background(), b), g)
	var be *guard.ErrBudgetExceeded
	if !errors.As(err, &be) || v != nil {
		t.Fatalf("budgeted: versioning=%v err=%v, want nil and a budget breach", v, err)
	}
	if be.Phase != "solve" || be.Shard != -1 {
		t.Fatalf("breach = %+v, want phase solve and no shard", be)
	}

	// The breach lands inside versioning: an unlimited run charges far
	// more than the budget allowed.
	full := guard.NewBudget(1<<40, 0, 0)
	if _, err := runVersioning(guard.WithBudget(context.Background(), full), g); err != nil {
		t.Fatal(err)
	}
	if full.StepsUsed() <= 8*cancelCheckInterval {
		t.Fatalf("unlimited bash versioning charged only %d steps", full.StepsUsed())
	}
}

var versioningSink *versioning

// BenchmarkVersioning times the meld-labelling pre-analysis alone.
func BenchmarkVersioning(b *testing.B) {
	for _, name := range []string{"nano", "bash", "lynx"} {
		b.Run(name, func(b *testing.B) {
			g := profileGraph(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, err := runVersioning(context.Background(), g)
				if err != nil {
					b.Fatal(err)
				}
				versioningSink = v
			}
		})
	}
}
