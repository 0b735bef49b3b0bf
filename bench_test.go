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
//	BenchmarkRetained        — heap a solved Result keeps alive
//	BenchmarkReport          — report build and JSON rendering
//	BenchmarkSmallRequest    — a whole request on a small program
//
// The versioning pre-analysis alone is timed by BenchmarkVersioning in
// internal/core.
package vsfs

import (
	"runtime"
	"testing"

	"vsfs/internal/andersen"
	"vsfs/internal/core"
	"vsfs/internal/figure2"
	"vsfs/internal/ir"
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

func BenchmarkFigure2(b *testing.B) {
	g, _, _ := figure2.Build()
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

// retainedProfiles spans the serve pool's sizes (du, psql, mruby) and
// the largest profile (lynx).
var retainedProfiles = []string{"du", "psql", "mruby", "lynx"}

// BenchmarkRetained reports the live heap a solved *Result keeps once
// the solve's garbage is collected: what a result cache pays per entry.
// It solves through AnalyzeIR, the path the CLI and the daemon take.
func BenchmarkRetained(b *testing.B) {
	for _, name := range retainedProfiles {
		b.Run(name, func(b *testing.B) {
			src := workload.ProfileByName(name).Build().String()
			var retained int64
			for i := 0; i < b.N; i++ {
				before := liveHeap()
				res, err := AnalyzeIR(src, Options{})
				if err != nil {
					b.Fatal(err)
				}
				retained = liveHeap() - before
				runtime.KeepAlive(res)
			}
			b.ReportMetric(float64(retained)/(1<<20), "retained-MB")
		})
	}
}

// liveHeap collects garbage and returns the bytes of live heap objects.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// reportProfiles are the two largest report producers of the
// benchmark's workloads: bash (store-heavy) and lynx (large).
var reportProfiles = []string{"bash", "lynx"}

// BenchmarkReport times what `vsfs -json` does after the solve: build
// the Report (checkers included) and render it with MarshalIndent.
func BenchmarkReport(b *testing.B) {
	for _, name := range reportProfiles {
		b.Run(name, func(b *testing.B) {
			res, err := AnalyzeIR(workload.ProfileByName(name).Build().String(), Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := res.Report().MarshalIndent(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSmallRequest times a whole `vsfs -json` request, the solve
// and the report, on a small program: the end-to-end benchmark's
// warm-up input, workload.Random(1, DefaultRandomConfig()), about 9 KB
// of IR. Work that does not scale with the program, such as a table a
// solve preallocates, shows here first.
func BenchmarkSmallRequest(b *testing.B) {
	src := workload.Random(1, workload.DefaultRandomConfig()).String()
	for _, mode := range []Mode{VSFS, SFS} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := AnalyzeIR(src, Options{Mode: mode})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := res.Report().MarshalIndent(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
