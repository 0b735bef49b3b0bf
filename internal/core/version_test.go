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

// refVersioning is the reference labelling's own C and Y tables, kept
// as per-node maps so the oracle shares no code with the slot layout.
type refVersioning struct {
	tab     *meld.Table
	consume []map[ir.Obj]meld.Version
	yield   []map[ir.Obj]meld.Version

	prelabels int
}

func set(m []map[ir.Obj]meld.Version, l uint32, o ir.Obj, v meld.Version) {
	if m[l] == nil {
		m[l] = make(map[ir.Obj]meld.Version)
	}
	m[l][o] = v
}

// referenceVersioning is the textbook meld labelling of Section IV-C: a
// global FIFO fixpoint that re-melds a node's successors whenever its
// label grows. It is kept only as the oracle the one-pass labelling is
// checked against.
func referenceVersioning(g *svfg.Graph) *refVersioning {
	n := len(g.Prog.Instrs)
	v := &refVersioning{
		tab:     meld.NewTable(),
		consume: make([]map[ir.Obj]meld.Version, n),
		yield:   make([]map[ir.Obj]meld.Version, n),
	}
	work := &objWorklist{dirty: make(map[uint32]*bitset.Sparse)}
	for l := uint32(1); l < uint32(n); l++ {
		if g.Prog.Instrs[l].Op == ir.Store {
			g.MSSA.ChiOf(l).ForEach(func(o uint32) {
				set(v.yield, l, ir.Obj(o), v.tab.NewAtom())
				v.prelabels++
				work.push(l, ir.Obj(o))
			})
		}
		if g.Delta[l] {
			g.MSSA.ChiOf(l).ForEach(func(o uint32) {
				set(v.consume, l, ir.Obj(o), v.tab.NewAtom())
				v.prelabels++
				work.push(l, ir.Obj(o))
			})
		}
	}
	for {
		l, objs, ok := work.pop()
		if !ok {
			break
		}
		in := g.Prog.Instrs[l]
		for _, o := range objs {
			// [INTERNAL]^V: non-store nodes yield what they consume.
			if in.Op != ir.Store {
				if cv := v.consume[l][o]; cv != meld.Epsilon && v.yield[l][o] != cv {
					set(v.yield, l, o, cv)
				}
			}
			yv := v.yield[l][o]
			if yv == meld.Epsilon {
				continue
			}
			// [EXTERNAL]^V, except into δ nodes (frozen consume).
			for _, succ := range g.IndirSuccs(l, o) {
				if g.Delta[succ] {
					continue
				}
				old := v.consume[succ][o]
				if melded := v.tab.Meld(old, yv); melded != old {
					set(v.consume, succ, o, melded)
					work.push(succ, o)
				}
			}
		}
	}
	return v
}

// objWorklist is a FIFO over nodes carrying per-node dirty object sets.
type objWorklist struct {
	queue []uint32
	dirty map[uint32]*bitset.Sparse
}

func (w *objWorklist) push(n uint32, o ir.Obj) {
	set := w.dirty[n]
	if set == nil {
		set = bitset.New()
		w.dirty[n] = set
		w.queue = append(w.queue, n)
	}
	set.Set(uint32(o))
}

func (w *objWorklist) pop() (uint32, []ir.Obj, bool) {
	if len(w.queue) == 0 {
		return 0, nil, false
	}
	n := w.queue[0]
	w.queue = w.queue[1:]
	var objs []ir.Obj
	w.dirty[n].ForEach(func(o uint32) { objs = append(objs, ir.Obj(o)) })
	delete(w.dirty, n)
	return n, objs, true
}

type objVer struct {
	o ir.Obj
	v meld.Version
}

// requireSamePartition asserts that two versionings induce the same
// (node, object) → version partition: the same consume and yield slots
// are materialised, and per object the map from one's versions to the
// other's is a bijection over both functions.
func requireSamePartition(t *testing.T, g *svfg.Graph, want *refVersioning, got *versioning) {
	t.Helper()
	if want.prelabels != got.stats.Prelabels {
		t.Fatalf("Prelabels: reference %d, got %d", want.prelabels, got.stats.Prelabels)
	}
	wantC, wantY := 0, 0
	for l := range want.consume {
		wantC += len(want.consume[l])
		wantY += len(want.yield[l])
	}
	if wantC != got.stats.ConsumeEntries || wantY != got.stats.YieldEntries {
		t.Fatalf("entries: reference %d/%d, got %d/%d", wantC, wantY,
			got.stats.ConsumeEntries, got.stats.YieldEntries)
	}
	fwd := map[objVer]meld.Version{}
	bwd := map[objVer]meld.Version{}
	match := func(fn string, l uint32, wm map[ir.Obj]meld.Version, gs []meld.Version) {
		lo, hi := g.SlotRange(l)
		n := 0
		for sl := lo; sl < hi; sl++ {
			o, gv := g.SlotObj(sl), gs[sl]
			wv, ok := wm[o]
			if ok != (gv != meld.Epsilon) {
				t.Fatalf("%s at node %d, object %d: reference materialised %v, got version %d", fn, l, o, ok, gv)
			}
			if !ok {
				continue
			}
			n++
			if prev, ok := fwd[objVer{o, wv}]; ok && prev != gv {
				t.Fatalf("%s at node %d, object %d: reference version %d maps to both %d and %d", fn, l, o, wv, prev, gv)
			}
			if prev, ok := bwd[objVer{o, gv}]; ok && prev != wv {
				t.Fatalf("%s at node %d, object %d: version %d maps back to both %d and %d", fn, l, o, gv, prev, wv)
			}
			fwd[objVer{o, wv}], bwd[objVer{o, gv}] = gv, wv
		}
		if n != len(wm) {
			t.Fatalf("%s at node %d: reference has %d objects, got %d", fn, l, len(wm), n)
		}
	}
	for l := uint32(0); int(l) < len(want.consume); l++ {
		match("consume", l, want.consume[l], got.consume)
		match("yield", l, want.yield[l], got.yield)
	}
}

// requireOneObjectPerVersion asserts the invariant the main phase's
// version-indexed tables rest on: no version other than ε is carried by
// slots of two different objects. It checks the stronger form
// ObjectSummary and collectStats read: the objects' version ranges tile
// 1 .. DistinctVersions-1 in object order, and every version on a slot
// of o lies in o's range.
func requireOneObjectPerVersion(t *testing.T, g *svfg.Graph, v *versioning) {
	t.Helper()
	n := g.Prog.NumObjects()
	if len(v.first) != n+1 || v.first[0] != 1 || int(v.first[n]) != v.stats.DistinctVersions {
		t.Fatalf("version ranges %v do not tile 1 .. %d over %d objects",
			v.first, v.stats.DistinctVersions-1, n)
	}
	for o := range n {
		if v.first[o] > v.first[o+1] {
			t.Fatalf("object %d: range %d .. %d runs backwards", o, v.first[o], v.first[o+1])
		}
	}
	for sl := range g.NumSlots() {
		o := g.SlotObj(sl)
		lo, hi := v.versions(o)
		for _, ver := range []meld.Version{v.consume[sl], v.yield[sl]} {
			if ver != meld.Epsilon && (ver < lo || ver >= hi) {
				t.Fatalf("version %d of object %d outside its range %d .. %d", ver, o, lo, hi-1)
			}
		}
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

// randomGraph stages one random program up to its SVFG.
func randomGraph(seed int64) *svfg.Graph {
	prog := workload.Random(seed, workload.DefaultRandomConfig())
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
		requireSamePartition(t, g, referenceVersioning(g), got)
		requireOneObjectPerVersion(t, g, got)
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
			check(t, randomGraph(seed))
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
	if be.Phase != "solve" {
		t.Fatalf("breach = %+v, want phase solve", be)
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

// TestVersioningByteBudget: the label table's storage is charged to
// the memory budget at the labeller's checkpoints, so a bash versioning
// pass under a 1 KiB memory limit breaches in the solve phase.
func TestVersioningByteBudget(t *testing.T) {
	g := profileGraph(t, "bash")
	b := guard.NewBudget(0, 1024, 0)
	v, err := runVersioning(guard.WithBudget(context.Background(), b), g)
	var be *guard.ErrBudgetExceeded
	if !errors.As(err, &be) || v != nil {
		t.Fatalf("versioning=%v err=%v, want nil and a budget breach", v, err)
	}
	if be.Phase != "solve" || be.Resource != guard.ResourceMem {
		t.Fatalf("breach = %+v, want mem in phase solve", be)
	}
}

// TestVersioningAllocsBounded pins the flat label table: one bash
// versioning pass allocates its slot arrays and a few growing buffers,
// not one object per label or meld (the Sparse-set table made 374,656).
func TestVersioningAllocsBounded(t *testing.T) {
	g := profileGraph(t, "bash")
	n := testing.AllocsPerRun(1, func() {
		if _, err := runVersioning(context.Background(), g); err != nil {
			t.Fatal(err)
		}
	})
	if n > 1000 {
		t.Fatalf("bash versioning made %v allocations, want at most 1,000", n)
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

var mainSink *Result

// BenchmarkMainSolve times the main phase alone, over a versioning
// built once; each iteration solves a fresh clone of the graph, since
// on-the-fly resolution adds edges to it.
func BenchmarkMainSolve(b *testing.B) {
	for _, name := range []string{"nano", "bash", "lynx"} {
		b.Run(name, func(b *testing.B) {
			g := profileGraph(b, name)
			ver, err := runVersioning(context.Background(), g)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := g.Clone()
				b.StartTimer()
				r, err := solveMain(context.Background(), c, ver)
				if err != nil {
					b.Fatal(err)
				}
				mainSink = r
			}
		})
	}
}
