// Package bench reproduces the paper's evaluation: it runs Andersen's
// analysis, SFS, VSFS and the CFG-free backend over the 15 synthetic
// benchmark profiles and renders Table II (benchmark characteristics)
// and Table III (time and memory), plus a per-backend comparison and
// the redundancy sweep backing the Section V shape claims.
//
// Timing follows the paper: the auxiliary analysis, memory-SSA and SVFG
// construction are excluded; the main solving phase is timed, and VSFS's
// versioning phase is reported separately. Memory is an analysis-level
// model — bytes backing points-to sets plus per-set and per-version
// bookkeeping overhead — rather than process RSS, because the former is
// deterministic and is precisely the quantity object versioning reduces.
package bench

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"vsfs/internal/andersen"
	"vsfs/internal/bitset"
	"vsfs/internal/cfgfree"
	"vsfs/internal/checker"
	"vsfs/internal/core"
	"vsfs/internal/ir"
	"vsfs/internal/memssa"
	"vsfs/internal/sfs"
	"vsfs/internal/svfg"
	"vsfs/internal/workload"
)

// Options configures a benchmark run.
type Options struct {
	// Runs is the number of timed repetitions per analysis; the average
	// is reported (the paper used 5).
	Runs int

	// MemLimit, when nonzero, marks an analysis OOM in Table III if its
	// modelled memory exceeds this many bytes (the paper capped runs at
	// 120 GB, which SFS exceeded on lynx).
	MemLimit int64
}

// Row holds every measured quantity for one benchmark.
type Row struct {
	Profile workload.Profile

	// Table II.
	Nodes         int
	DirectEdges   int
	IndirectEdges int
	TopLevel      int
	AddressTaken  int

	// Table III.
	AndersenTime time.Duration
	AndersenMem  int64
	SFSTime      time.Duration
	SFSMem       int64
	SFSOOM       bool
	VersionTime  time.Duration
	VSFSTime     time.Duration
	VSFSMem      int64
	// Speedup is SFSTime / (VSFSTime + VersionTime); MemRatio is
	// SFSMem / VSFSMem. Both are zero when SFS OOMed: its time and
	// memory are not measurements there, so any ratio over them would
	// be garbage (tables render the column as "—" and means skip it).
	Speedup  float64
	MemRatio float64

	// CFG-free backend (the Andersen-style flow-sensitive solver):
	// solving time over the program plus the auxiliary result, and the
	// modelled memory of its global sets and strong-update windows.
	CfgfreeTime time.Duration
	CfgfreeMem  int64

	SFSStats     sfs.Stats
	VSFSStats    core.Stats
	CfgfreeStats cfgfree.Stats

	// Checker overhead: wall time of the full memory-safety checker
	// suite over the solved VSFS facts, and how many findings it
	// produced. Quantifies what -check adds on top of solving.
	CheckTime     time.Duration
	CheckFindings int
}

// Per-entry overhead constants for the memory model: a bitset header +
// map entry ≈ 48 bytes; a consume/yield slot ≈ 16 bytes.
const (
	setOverhead  = 48
	slotOverhead = 16
)

// SFSMemBytes models SFS's points-to storage.
func SFSMemBytes(st sfs.Stats) int64 {
	return int64(st.PtsWords)*8 + int64(st.PtsSets)*setOverhead + int64(st.TopLevelWords)*8
}

// VSFSMemBytes models VSFS's points-to storage plus versioning overhead.
func VSFSMemBytes(st core.Stats) int64 {
	return int64(st.PtsWords)*8 + int64(st.PtsSets)*setOverhead + int64(st.TopLevelWords)*8 +
		int64(st.Versioning.ConsumeEntries+st.Versioning.YieldEntries)*slotOverhead
}

// CfgfreeMemBytes models the CFG-free backend's storage: the global
// per-variable and per-object sets plus one slot per store value held
// in a strong-update window.
func CfgfreeMemBytes(st cfgfree.Stats) int64 {
	return int64(st.PtsWords)*8 + int64(st.PtsSets)*setOverhead +
		int64(st.WindowStores)*slotOverhead
}

// AndersenMemBytes models the auxiliary analysis's storage. Cycle
// collapsing shares one set across a merged equivalence class, so
// distinct sets are counted once.
func AndersenMemBytes(prog *ir.Program, aux *andersen.Result) int64 {
	seen := make(map[*bitset.Sparse]bool)
	var bytes int64
	for v := ir.ID(1); int(v) < prog.NumValues(); v++ {
		s := aux.PointsTo(v)
		if s.IsEmpty() || seen[s] {
			continue
		}
		seen[s] = true
		bytes += int64(s.Words())*8 + setOverhead
	}
	return bytes
}

// RunProfile builds one profile's program and measures all three
// analyses.
func RunProfile(p workload.Profile, opts Options) Row {
	if opts.Runs <= 0 {
		opts.Runs = 1
	}
	row := Row{Profile: p}

	prog := p.Build()

	// Auxiliary analysis (timed separately, per the paper's Table III).
	start := time.Now()
	aux := andersen.Analyze(prog)
	row.AndersenTime = time.Since(start)
	row.AndersenMem = AndersenMemBytes(prog, aux)

	mssa := memssa.Build(prog, aux)
	g := svfg.Build(prog, aux, mssa)

	row.Nodes = g.NumNodes
	row.DirectEdges = g.NumDirectEdges
	row.IndirectEdges = g.NumIndirectEdges
	row.TopLevel = g.NumTopLevel
	row.AddressTaken = g.NumAddressTaken

	var sfsTotal, vsfsTotal, verTotal, cfTotal time.Duration
	var lastVR *core.Result
	for i := 0; i < opts.Runs; i++ {
		gs := g.Clone()
		start = time.Now()
		sr := sfs.Solve(gs)
		sfsTotal += time.Since(start)
		row.SFSStats = sr.Stats

		gv := g.Clone()
		vr := core.Solve(gv)
		vsfsTotal += vr.Stats.SolveTime
		verTotal += vr.Stats.Versioning.Duration
		row.VSFSStats = vr.Stats
		lastVR = vr

		start = time.Now()
		cr := cfgfree.Solve(prog, aux)
		cfTotal += time.Since(start)
		row.CfgfreeStats = cr.Stats
	}
	start = time.Now()
	row.CheckFindings = len(checker.MemorySafety(prog, lastVR))
	row.CheckTime = time.Since(start)
	row.SFSTime = sfsTotal / time.Duration(opts.Runs)
	row.VSFSTime = vsfsTotal / time.Duration(opts.Runs)
	row.VersionTime = verTotal / time.Duration(opts.Runs)
	row.CfgfreeTime = cfTotal / time.Duration(opts.Runs)

	row.SFSMem = SFSMemBytes(row.SFSStats)
	row.VSFSMem = VSFSMemBytes(row.VSFSStats)
	row.CfgfreeMem = CfgfreeMemBytes(row.CfgfreeStats)
	if opts.MemLimit > 0 && row.SFSMem > opts.MemLimit {
		// An OOMed SFS never finished: its time and modelled memory are
		// where it gave up, not measurements, so the SFS/VSFS ratios
		// stay zero rather than flattering VSFS with garbage.
		row.SFSOOM = true
	} else {
		if row.VSFSTime+row.VersionTime > 0 {
			row.Speedup = float64(row.SFSTime) / float64(row.VSFSTime+row.VersionTime)
		}
		if row.VSFSMem > 0 {
			row.MemRatio = float64(row.SFSMem) / float64(row.VSFSMem)
		}
	}
	return row
}

// Run measures every profile, reporting progress to w (may be nil).
func Run(profiles []workload.Profile, opts Options, w io.Writer) []Row {
	rows := make([]Row, 0, len(profiles))
	for _, p := range profiles {
		if w != nil {
			fmt.Fprintf(w, "bench: %s...\n", p.Name)
		}
		rows = append(rows, RunProfile(p, opts))
	}
	return rows
}

// geoMean computes the geometric mean of xs, skipping non-positive
// entries (as the paper does for missing data).
func geoMean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// FormatTable2 renders Table II: benchmark characteristics.
func FormatTable2(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II: benchmark characteristics (synthetic profiles, ~1/40 paper scale)\n\n")
	fmt.Fprintf(&b, "%-14s %9s %10s %10s %10s %10s  %s\n",
		"Bench.", "# Nodes", "# D.Edges", "# I.Edges", "TopLevel", "AddrTaken", "Description")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %9d %10d %10d %10d %10d  %s\n",
			r.Profile.Name, r.Nodes, r.DirectEdges, r.IndirectEdges,
			r.TopLevel, r.AddressTaken, r.Profile.Desc)
	}
	return b.String()
}

// FormatTable3 renders Table III: analysis time and modelled memory.
func FormatTable3(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table III: time (ms) and modelled memory (MB)\n\n")
	fmt.Fprintf(&b, "%-14s %9s | %9s %9s | %7s %9s %9s | %9s %8s\n",
		"Bench.", "Ander.", "SFS t", "SFS MB", "ver t", "VSFS t", "VSFS MB", "Time diff", "Mem diff")
	var speedups, memRatios []float64
	for _, r := range rows {
		sfsT := fmt.Sprintf("%9.1f", ms(r.SFSTime))
		sfsM := fmt.Sprintf("%9.2f", mb(r.SFSMem))
		diffT := fmt.Sprintf("%8.2fx", r.Speedup)
		diffM := fmt.Sprintf("%7.2fx", r.MemRatio)
		if r.SFSOOM {
			// Both ratios are meaningless when SFS never finished; keep
			// them out of the table and the averages entirely.
			sfsT, diffT, diffM = "      OOM", "        —", "      —"
		} else {
			speedups = append(speedups, r.Speedup)
			memRatios = append(memRatios, r.MemRatio)
		}
		fmt.Fprintf(&b, "%-14s %9.1f | %s %s | %7.1f %9.1f %9.2f | %s %s\n",
			r.Profile.Name, ms(r.AndersenTime), sfsT, sfsM,
			ms(r.VersionTime), ms(r.VSFSTime), mb(r.VSFSMem), diffT, diffM)
	}
	fmt.Fprintf(&b, "\n%-14s %s %8.2fx %s %7.2fx\n", "Average", strings.Repeat(" ", 63),
		geoMean(speedups), strings.Repeat(" ", 1), geoMean(memRatios))
	return b.String()
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
func mb(bytes int64) float64     { return float64(bytes) / (1 << 20) }

// FormatBackends renders the per-backend comparison: solving time and
// modelled memory for every selectable backend, one line per benchmark.
// VSFS's time includes its versioning phase, since backend selection
// pays for both. Precision rises left to right except for the last
// column: sfs ≡ vsfs ⊆ cfgfree ⊆ andersen.
func FormatBackends(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Backend comparison: solving time (ms) and modelled memory (MB)\n\n")
	fmt.Fprintf(&b, "%-14s | %9s %9s | %9s %9s | %9s %9s | %9s %9s\n",
		"Bench.", "ander t", "ander MB", "sfs t", "sfs MB",
		"vsfs t", "vsfs MB", "cfree t", "cfree MB")
	for _, r := range rows {
		sfsT := fmt.Sprintf("%9.1f", ms(r.SFSTime))
		if r.SFSOOM {
			sfsT = "      OOM"
		}
		fmt.Fprintf(&b, "%-14s | %9.1f %9.2f | %s %9.2f | %9.1f %9.2f | %9.1f %9.2f\n",
			r.Profile.Name, ms(r.AndersenTime), mb(r.AndersenMem),
			sfsT, mb(r.SFSMem),
			ms(r.VSFSTime+r.VersionTime), mb(r.VSFSMem),
			ms(r.CfgfreeTime), mb(r.CfgfreeMem))
	}
	return b.String()
}

// SweepPoint is one measurement of the redundancy sweep.
type SweepPoint struct {
	ChainFrac float64
	Speedup   float64
	MemRatio  float64
}

// RunSweep varies the pointer-chase redundancy knob on a mid-size
// profile and reports the SFS/VSFS ratios — the Section V claim that
// VSFS's advantage grows with single-object redundancy, with no
// regression at zero. The instruction budget is scaled so the non-chain
// core of the program (stores, allocations, calls) stays roughly
// constant while the redundant load chains grow.
func RunSweep(fracs []float64, w io.Writer) []SweepPoint {
	var out []SweepPoint
	for _, frac := range fracs {
		const chainCost = 3 // average budget one emitted chain consumes
		budget := int(34 * (frac*chainCost + (1 - frac)) / (1 - frac + 1e-9))
		if w != nil {
			fmt.Fprintf(w, "sweep: ChainFrac=%.2f...\n", frac)
		}
		// Average over several seeds: each (frac, seed) pair generates a
		// structurally different program, so a single draw is noisy.
		var speedups, memRatios []float64
		for seed := int64(500); seed < 503; seed++ {
			p := workload.Profile{
				Name: fmt.Sprintf("sweep-%.2f-%d", frac, seed),
				Seed: seed,
				Cfg: workload.RandomConfig{
					Funcs: 60, MaxParams: 3, InstrsPerFunc: budget, MaxFields: 3,
					HeapFrac: 0.4, IndirectCalls: true, Globals: 8,
					LoopFrac: 0.12, BranchFrac: 0.28, StoreFrac: 0.4,
					ChainFrac: frac, ChainLen: 5, GlobalBias: 0.2, BuilderFrac: 0.06,
					ChainFromGlobals: 0.7,
				},
			}
			row := RunProfile(p, Options{Runs: 1})
			speedups = append(speedups, row.Speedup)
			memRatios = append(memRatios, row.MemRatio)
		}
		out = append(out, SweepPoint{ChainFrac: frac, Speedup: geoMean(speedups), MemRatio: geoMean(memRatios)})
	}
	return out
}

// FormatSweep renders the sweep series.
func FormatSweep(points []SweepPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Redundancy sweep (ChainFrac → SFS/VSFS ratios)\n\n")
	fmt.Fprintf(&b, "%9s %10s %10s\n", "ChainFrac", "Time diff", "Mem diff")
	for _, p := range points {
		fmt.Fprintf(&b, "%9.2f %9.2fx %9.2fx\n", p.ChainFrac, p.Speedup, p.MemRatio)
	}
	return b.String()
}

// Sanity exposes small invariant checks used by tests and the CLI: the
// two analyses must agree on every top-level points-to set.
func Sanity(p workload.Profile) error {
	prog := p.Build()
	aux := andersen.Analyze(prog)
	mssa := memssa.Build(prog, aux)
	g := svfg.Build(prog, aux, mssa)
	sr := sfs.Solve(g.Clone())
	vr := core.Solve(g.Clone())
	for v := ir.ID(1); int(v) < prog.NumValues(); v++ {
		if !prog.IsPointer(v) {
			continue
		}
		if !sr.PointsTo(v).Equal(vr.PointsTo(v)) {
			return fmt.Errorf("profile %s: pts(%s) differs between SFS and VSFS", p.Name, prog.NameOf(v))
		}
	}
	return nil
}

// AblationRow compares on-the-fly call-graph resolution (the paper's
// configuration) against prewiring the auxiliary call graph (the
// §IV-C1 simplification) for one benchmark.
type AblationRow struct {
	Name string

	OTFCallEdges int // flow-sensitively resolved (call, callee) pairs
	AuxCallEdges int // auxiliary-resolved pairs

	OTFTime time.Duration // versioning + main phase, OTF
	AuxTime time.Duration // versioning + main phase, prewired
	OTFSets int
	AuxSets int
}

// RunCallGraphAblation measures VSFS under both call-graph strategies.
func RunCallGraphAblation(profiles []workload.Profile, w io.Writer) []AblationRow {
	var out []AblationRow
	for _, p := range profiles {
		if w != nil {
			fmt.Fprintf(w, "ablation: %s...\n", p.Name)
		}
		prog := p.Build()
		aux := andersen.Analyze(prog)
		mssa := memssa.Build(prog, aux)
		otf := svfg.Build(prog, aux, mssa)
		pre := svfg.BuildAuxCallGraph(prog, aux, mssa)

		row := AblationRow{Name: p.Name}

		rOtf := core.Solve(otf.Clone())
		row.OTFTime = rOtf.Stats.SolveTime + rOtf.Stats.Versioning.Duration
		row.OTFSets = rOtf.Stats.PtsSets
		row.OTFCallEdges = rOtf.Stats.CallEdges

		rPre := core.Solve(pre.Clone())
		row.AuxTime = rPre.Stats.SolveTime + rPre.Stats.Versioning.Duration
		row.AuxSets = rPre.Stats.PtsSets
		row.AuxCallEdges = rPre.Stats.CallEdges

		out = append(out, row)
	}
	return out
}

// FormatAblation renders the call-graph ablation: the paper argues
// on-the-fly resolution is "more precise and performant" than using the
// auxiliary call graph; the call-edge column shows the precision side
// and the time column the performance side.
func FormatAblation(rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Call-graph ablation: on-the-fly (OTF, §IV-C1 default) vs auxiliary prewired\n\n")
	fmt.Fprintf(&b, "%-14s %12s %12s | %10s %10s | %9s %9s\n",
		"Bench.", "OTF edges", "Aux edges", "OTF ms", "Aux ms", "OTF sets", "Aux sets")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %12d %12d | %10.1f %10.1f | %9d %9d\n",
			r.Name, r.OTFCallEdges, r.AuxCallEdges,
			ms(r.OTFTime), ms(r.AuxTime), r.OTFSets, r.AuxSets)
	}
	return b.String()
}

// VersionRow summarises the pre-analysis per benchmark: how much
// sharing object versioning achieves.
type VersionRow struct {
	Name string

	IndirectEdges      int
	VersionConstraints int // surviving A-PROP constraints between versions
	Prelabels          int
	DistinctVersions   int
	SFSSets            int // (node, object) points-to sets SFS stores
	VSFSSets           int // (object, version) sets VSFS stores
}

// RunVersionStats measures the sharing factors of Section IV on each
// profile: constraints per indirect edge and sets per SFS set are the
// two reductions the motivating example illustrates (6→2 and 6→3).
func RunVersionStats(profiles []workload.Profile, w io.Writer) []VersionRow {
	var out []VersionRow
	for _, p := range profiles {
		if w != nil {
			fmt.Fprintf(w, "versions: %s...\n", p.Name)
		}
		prog := p.Build()
		aux := andersen.Analyze(prog)
		mssa := memssa.Build(prog, aux)
		g := svfg.Build(prog, aux, mssa)
		sr := sfs.Solve(g.Clone())
		vr := core.Solve(g.Clone())
		out = append(out, VersionRow{
			Name:               p.Name,
			IndirectEdges:      g.NumIndirectEdges,
			VersionConstraints: vr.Stats.VersionConstraints,
			Prelabels:          vr.Stats.Versioning.Prelabels,
			DistinctVersions:   vr.Stats.Versioning.DistinctVersions,
			SFSSets:            sr.Stats.PtsSets,
			VSFSSets:           vr.Stats.PtsSets,
		})
	}
	return out
}

// FormatVersionStats renders the sharing table.
func FormatVersionStats(rows []VersionRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Versioning effectiveness: stored sets and propagation constraints\n\n")
	fmt.Fprintf(&b, "%-14s %10s %10s %8s | %10s %10s %8s | %10s %10s\n",
		"Bench.", "I.Edges", "V.Constr", "ratio",
		"SFS sets", "VSFS sets", "ratio", "Prelabels", "Versions")
	for _, r := range rows {
		cr, sr := 0.0, 0.0
		if r.VersionConstraints > 0 {
			cr = float64(r.IndirectEdges) / float64(r.VersionConstraints)
		}
		if r.VSFSSets > 0 {
			sr = float64(r.SFSSets) / float64(r.VSFSSets)
		}
		fmt.Fprintf(&b, "%-14s %10d %10d %7.1fx | %10d %10d %7.1fx | %10d %10d\n",
			r.Name, r.IndirectEdges, r.VersionConstraints, cr,
			r.SFSSets, r.VSFSSets, sr, r.Prelabels, r.DistinctVersions)
	}
	return b.String()
}
