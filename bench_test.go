// Benchmarks regenerating the paper's evaluation, one family per table
// or figure. The full 15-benchmark tables (exact rows, geometric means,
// OOM marking) are produced by `go run ./cmd/vsfs-bench`; the testing.B
// entries here time the individual analyses on a representative subset
// so `go test -bench=.` stays tractable.
//
//	BenchmarkTable2Build     — Table II pipeline construction (SVFG sizes)
//	BenchmarkTable3Andersen  — Table III column 1
//	BenchmarkTable3SFS       — Table III columns 2–3 (the baseline)
//	BenchmarkTable3VSFS      — Table III columns 4–6 (the contribution)
//	BenchmarkFigure2         — the motivating-example fragment
//	BenchmarkSweepRedundancy — Section V shape claim (speedup vs chains)
//	BenchmarkVersioningOnly  — the pre-analysis in isolation
package vsfs

import (
	"testing"

	"vsfs/internal/andersen"
	"vsfs/internal/bitset"
	"vsfs/internal/core"
	"vsfs/internal/ir"
	"vsfs/internal/irparse"
	"vsfs/internal/memssa"
	"vsfs/internal/sfs"
	"vsfs/internal/svfg"
	"vsfs/internal/workload"
)

// benchProfiles is the subset of Table II profiles small enough to
// iterate under testing.B.
var benchProfiles = []string{"du", "ninja", "dpkg", "nano", "psql"}

func buildGraph(b *testing.B, name string) *svfg.Graph {
	b.Helper()
	p := workload.ProfileByName(name)
	if p == nil {
		b.Fatalf("no profile %q", name)
	}
	prog := p.Build()
	aux := andersen.Analyze(prog)
	mssa := memssa.Build(prog, aux)
	return svfg.Build(prog, aux, mssa)
}

func BenchmarkTable2Build(b *testing.B) {
	for _, name := range benchProfiles {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			p := workload.ProfileByName(name)
			for i := 0; i < b.N; i++ {
				prog := p.Build()
				aux := andersen.Analyze(prog)
				mssa := memssa.Build(prog, aux)
				g := svfg.Build(prog, aux, mssa)
				if g.NumNodes == 0 {
					b.Fatal("empty SVFG")
				}
			}
		})
	}
}

func BenchmarkTable3Andersen(b *testing.B) {
	for _, name := range benchProfiles {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			p := workload.ProfileByName(name)
			progs := make([]*ir.Program, b.N)
			for i := range progs {
				progs[i] = p.Build()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				andersen.Analyze(progs[i])
			}
		})
	}
}

func BenchmarkTable3SFS(b *testing.B) {
	for _, name := range benchProfiles {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			g := buildGraph(b, name)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sfs.Solve(g.Clone())
			}
		})
	}
}

func BenchmarkTable3VSFS(b *testing.B) {
	for _, name := range benchProfiles {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			g := buildGraph(b, name)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.Solve(g.Clone())
			}
		})
	}
}

// BenchmarkVersioningOnly isolates the meld-labelling pre-analysis by
// measuring a solve whose time is dominated by versioning (solving with
// the versioning already warm is not separable through the public API,
// so this compares whole-run VSFS with the versioning stats reported).
func BenchmarkVersioningOnly(b *testing.B) {
	g := buildGraph(b, "nano")
	b.ResetTimer()
	var total int64
	for i := 0; i < b.N; i++ {
		r := core.Solve(g.Clone())
		total += r.Stats.Versioning.Duration.Nanoseconds()
	}
	b.ReportMetric(float64(total)/float64(b.N), "versioning-ns/op")
}

func figure2Graph(b *testing.B) *svfg.Graph {
	b.Helper()
	prog, err := irparse.Parse(`
func main() {
entry:
  p = alloc.heap a 0
  q = copy p
  x1 = alloc b1 0
  x2 = alloc b2 0
  store p, x1
  v3 = load p
  store q, x2
  v4 = load p
  v5 = load p
  ret
}
`)
	if err != nil {
		b.Fatal(err)
	}
	aux := andersen.Analyze(prog)
	var l [6]uint32
	var a ir.ID
	stores, loads := 0, 0
	prog.FuncByName("main").ForEachInstr(func(in *ir.Instr) {
		switch in.Op {
		case ir.Alloc:
			if prog.Value(in.Obj).Name == "a" {
				a = in.Obj
			}
		case ir.Store:
			stores++
			l[stores] = in.Label
		case ir.Load:
			loads++
			l[2+loads] = in.Label
		}
	})
	n := len(prog.Instrs)
	mssa := &memssa.Result{
		Prog: prog, Aux: aux,
		Mu:        make([]*bitset.Sparse, n),
		Chi:       make([]*bitset.Sparse, n),
		FormalIn:  map[*ir.Function]*bitset.Sparse{},
		FormalOut: map[*ir.Function]*bitset.Sparse{},
		CallRets:  map[*ir.Instr]*ir.Instr{},
	}
	for _, f := range prog.Funcs {
		mssa.FormalIn[f] = bitset.New()
		mssa.FormalOut[f] = bitset.New()
	}
	mssa.Chi[l[1]] = bitset.Of(uint32(a))
	mssa.Chi[l[2]] = bitset.Of(uint32(a))
	for _, ld := range []uint32{l[3], l[4], l[5]} {
		mssa.Mu[ld] = bitset.Of(uint32(a))
	}
	mssa.Edges = []memssa.IndirEdge{
		{From: l[1], To: l[2], Obj: a}, {From: l[1], To: l[3], Obj: a},
		{From: l[1], To: l[4], Obj: a}, {From: l[1], To: l[5], Obj: a},
		{From: l[2], To: l[4], Obj: a}, {From: l[2], To: l[5], Obj: a},
	}
	return svfg.Build(prog, aux, mssa)
}

func BenchmarkFigure2(b *testing.B) {
	g := figure2Graph(b)
	b.Run("sfs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := sfs.Solve(g.Clone())
			if r.Stats.PtsSets != 6 {
				b.Fatalf("PtsSets = %d, want 6", r.Stats.PtsSets)
			}
		}
	})
	b.Run("vsfs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := core.Solve(g.Clone())
			if r.Stats.PtsSets != 3 {
				b.Fatalf("PtsSets = %d, want 3", r.Stats.PtsSets)
			}
		}
	})
}

// BenchmarkSweepRedundancy regenerates the Section V shape claim: as
// single-object redundancy (pointer-chase density) grows, SFS slows
// down much faster than VSFS.
func BenchmarkSweepRedundancy(b *testing.B) {
	for _, frac := range []float64{0, 0.25, 0.5} {
		// Scale the budget so the non-chain core stays constant while
		// redundant load chains grow (see bench.RunSweep).
		const chainCost = 3
		budget := int(30 * (frac*chainCost + (1 - frac)) / (1 - frac + 1e-9))
		cfg := workload.RandomConfig{
			Funcs: 24, MaxParams: 3, InstrsPerFunc: budget, MaxFields: 3,
			HeapFrac: 0.4, IndirectCalls: true, Globals: 6,
			LoopFrac: 0.12, BranchFrac: 0.28, StoreFrac: 0.4,
			ChainFrac: frac, ChainLen: 5, GlobalBias: 0.2, BuilderFrac: 0.06,
		}
		prog := workload.Random(500, cfg)
		aux := andersen.Analyze(prog)
		mssa := memssa.Build(prog, aux)
		g := svfg.Build(prog, aux, mssa)
		name := func(analysis string) string {
			return analysis + "/chain=" + fmtFrac(frac)
		}
		b.Run(name("sfs"), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sfs.Solve(g.Clone())
			}
		})
		b.Run(name("vsfs"), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Solve(g.Clone())
			}
		})
	}
}

func fmtFrac(f float64) string {
	switch f {
	case 0:
		return "0.00"
	case 0.25:
		return "0.25"
	default:
		return "0.50"
	}
}
