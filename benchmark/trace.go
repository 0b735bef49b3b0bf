package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"vsfs"
	"vsfs/internal/andersen"
	"vsfs/internal/bench"
	"vsfs/internal/core"
	"vsfs/internal/ir"
	"vsfs/internal/irparse"
	"vsfs/internal/memssa"
	"vsfs/internal/sfs"
	"vsfs/internal/svfg"
)

// span is one recorded interval of the traced run. Spans of one request
// share Request; Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID, Parent, Request int
	Name                string
	Start, End          time.Duration // since the recorder's origin
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span and returns its ID.
func (r *recorder) begin(name string, parent, request int) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Request: request, Name: name, Start: time.Since(r.origin)})
	return len(r.spans)
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	s := &r.spans[id-1]
	s.End = time.Since(r.origin)
	return s.End - s.Start
}

// selfTimes returns each span's duration minus the part of its interval
// its child spans cover, keyed by span ID.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		cs := children[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered time.Duration
		cur := s.Start // everything before cur is already counted
		for _, c := range cs {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// writeChrome writes spans as Chrome trace_event JSON (open it in
// Perfetto or chrome://tracing).
func writeChrome(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   int64          `json:"ts"`
		Dur  int64          `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Ts: s.Start.Microseconds(), Dur: (s.End - s.Start).Microseconds(), Pid: 1, Tid: 1,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "request": s.Request},
		}
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{events, "ms"})
}

// allocated reads the cumulative bytes the process has allocated.
func allocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mib = 1 << 20

// tracer measures calls into the layers for one traced run.
type tracer struct {
	rec *recorder
	req int
}

// measure runs f inside a span named after a layer and returns the
// span's duration in ms and the MB allocated meanwhile.
func (t *tracer) measure(name string, parent int, f func() error) (float64, float64, error) {
	a := allocated()
	id := t.rec.begin(name, parent, t.req)
	err := f()
	d := t.rec.end(id)
	return ms(d), float64(allocated()-a) / mib, err
}

// layers analyses src by calling each layer's public function in
// pipeline order, recording into vals. Mode "sfs" solves with SFS and,
// for the paper's Table III view, also with VSFS on a clone of the
// graph. "layers_ms" sums the layers the facade's analyze step runs for
// the mode, which that extra VSFS solve is not.
func (t *tracer) layers(src, mode string, vals map[string]float64) error {
	ctx := context.Background()
	root := t.rec.begin("layers", 0, t.req)
	defer t.rec.end(root)
	call := func(layer string, inRequest bool, f func() error) error {
		d, mb, err := t.measure(layer, root, f)
		if err != nil {
			return fmt.Errorf("%s: %w", layer, err)
		}
		vals[layer+".ms"], vals[layer+".alloc_mb"] = d, mb
		if inRequest {
			vals["layers_ms"] += d
		}
		return nil
	}

	var prog *ir.Program
	if err := call("irparse", true, func() (err error) { prog, err = irparse.Parse(src); return err }); err != nil {
		return err
	}
	vals["irparse.instrs"] = float64(len(prog.Instrs) - 1)

	var aux *andersen.Result
	if err := call("andersen", true, func() (err error) { aux, err = andersen.AnalyzeContext(ctx, prog); return err }); err != nil {
		return err
	}
	vals["andersen.pops"] = float64(aux.Stats.Pops)
	vals["andersen.propagations"] = float64(aux.Stats.Propagations)
	vals["andersen.scc_collapses"] = float64(aux.Stats.SCCCollapses)

	var mssa *memssa.Result
	if err := call("memssa", true, func() (err error) { mssa, err = memssa.BuildContext(ctx, prog, aux); return err }); err != nil {
		return err
	}

	var g *svfg.Graph
	if err := call("svfg", true, func() (err error) { g, err = svfg.BuildContext(ctx, prog, aux, mssa); return err }); err != nil {
		return err
	}
	vals["svfg.nodes"] = float64(g.NumNodes)
	vals["svfg.indirect_edges"] = float64(g.NumIndirectEdges)

	vg := g
	if mode == "sfs" {
		vg = g.Clone()
		var sr *sfs.Result
		if err := call("sfs", true, func() (err error) { sr, err = sfs.SolveContext(ctx, g); return err }); err != nil {
			return err
		}
		vals["sfs.pops"] = float64(sr.Stats.NodesProcessed)
		vals["sfs.propagations"] = float64(sr.Stats.Propagations)
		vals["sfs.changed"] = float64(sr.Stats.Changed)
		vals["sfs.pts_sets"] = float64(sr.Stats.PtsSets)
		vals["sfs.model_mb"] = float64(bench.SFSMemBytes(sr.Stats)) / mib
	}
	var vr *core.Result
	if err := call("core", mode != "sfs", func() (err error) { vr, err = core.SolveContext(ctx, vg); return err }); err != nil {
		return err
	}
	// The core span covers versioning and the main phase; the solver
	// times each itself, so core.ms is the main phase alone.
	st := vr.Stats
	vals["core.ms"] = ms(st.SolveTime)
	vals["meld.ms"] = ms(st.Versioning.Duration)
	vals["meld.prelabels"] = float64(st.Versioning.Prelabels)
	vals["meld.versions"] = float64(st.Versioning.DistinctVersions)
	vals["meld.melds"] = float64(st.Versioning.MeldOps)
	vals["meld.iterations"] = float64(st.Versioning.Iterations)
	vals["core.pops"] = float64(st.NodesProcessed)
	vals["core.propagations"] = float64(st.Propagations)
	vals["core.changed"] = float64(st.Changed)
	vals["core.pts_sets"] = float64(st.PtsSets)
	vals["core.model_mb"] = float64(bench.VSFSMemBytes(st)) / mib
	return nil
}

// facade makes one request through the public API, Analyze → Report →
// MarshalIndent, and checks the report. A traced request records a span
// per step; a bare one is timed as a whole and nothing else. The traced
// request also times the checkers alone, through Result.Check, before
// Report runs them again; that extra span is left out of the request's
// time, so traced and bare requests do the same work.
func (t *tracer) facade(p program, mode vsfs.Mode, traced bool, v *verifier, vals map[string]float64) error {
	opts := vsfs.Options{Mode: mode}
	if !traced {
		start := time.Now()
		r, err := vsfs.AnalyzeIR(p.src, opts)
		if err != nil {
			return err
		}
		rep := r.Report()
		if _, err := rep.MarshalIndent(); err != nil {
			return err
		}
		vals["facade_bare_ms"] = ms(time.Since(start))
		return v.checkReport(p.name, rep)
	}
	root := t.rec.begin("request", 0, t.req)
	var r *vsfs.Result
	d, _, err := t.measure("analyze", root, func() (err error) { r, err = vsfs.AnalyzeIR(p.src, opts); return err })
	if err != nil {
		t.rec.end(root)
		return err
	}
	vals["analyze_ms"] = d
	var found []vsfs.Finding
	chk, chkMB, _ := t.measure("checker", root, func() error { found = r.Check(); return nil })
	vals["checker.ms"], vals["checker.alloc_mb"], vals["checker.findings"] = chk, chkMB, float64(len(found))
	var rep vsfs.Report
	d, mb, _ := t.measure("report", root, func() error { rep = r.Report(); return nil })
	var data []byte
	enc, encMB, err := t.measure("encode", root, func() (err error) { data, err = rep.MarshalIndent(); return err })
	vals["facade_traced_ms"] = ms(t.rec.end(root)) - chk
	if err != nil {
		return err
	}
	vals["report.ms"], vals["report.encode_ms"], vals["report.alloc_mb"] = d, enc, mb+encMB
	vals["report.bytes"] = float64(len(data))
	return v.checkReport(p.name, rep)
}

// countKeys are the deterministic counts; a traced run fails when one
// differs between passes over the same program.
var countKeys = []string{
	"irparse.instrs", "andersen.pops", "andersen.propagations", "andersen.scc_collapses",
	"svfg.nodes", "svfg.indirect_edges",
	"meld.prelabels", "meld.versions", "meld.melds", "meld.iterations",
	"core.pops", "core.propagations", "core.changed", "core.pts_sets", "core.model_mb",
	"sfs.pops", "sfs.propagations", "sfs.changed", "sfs.pts_sets", "sfs.model_mb",
	"checker.findings", "report.bytes",
}

// runTraced measures each layer in-process: every pass makes, per
// program, one layer-by-layer request, one facade request (traced and
// bare on alternate passes) and one CLI request, for at least two passes
// and until the run has lasted seconds.
func (e *env) runTraced(s spec, seed int64, seconds float64) (*result, error) {
	r := newResult(s.name, seed, true)
	programs := s.programs
	if s.serve {
		for j := 0; j < traceServePrograms; j++ {
			programs = append(programs, servePoolName(j))
		}
	}
	mode, err := vsfs.ParseMode(s.mode)
	if err != nil {
		return nil, err
	}
	ins, v, err := e.setupCLI(s, programs, seed)
	if err != nil {
		return nil, err
	}

	t := &tracer{rec: newRecorder()}
	passes := make([][]map[string]float64, len(ins))
	start := time.Now()
	for pass := 0; pass < 2 || time.Since(start).Seconds() < seconds; pass++ {
		for i, in := range ins {
			vals := map[string]float64{}
			steps := []func() error{
				func() error { return t.layers(in.src, s.mode, vals) },
				func() error { return t.facade(in.program, mode, pass%2 == 0, v, vals) },
				func() error {
					smp, err := e.cli(in, s.mode, v)
					if err == nil {
						vals["cli_ms"] = smp.wall * 1e3
					}
					return err
				},
			}
			for _, step := range steps {
				runtime.GC() // no request pays for the previous one's garbage
				t.req++
				r.Attempted++
				if err := step(); err != nil {
					r.fail(fmt.Errorf("%s: %w", in.name, err))
				}
			}
			passes[i] = append(passes[i], vals)
		}
	}

	tot := map[string]float64{}
	var speedups, memRatios []float64 // per program, for the Table III view
	for i, in := range ins {
		med := map[string]float64{}
		keys := map[string][]float64{}
		for _, vals := range passes[i] {
			for k, x := range vals {
				keys[k] = append(keys[k], x)
			}
		}
		for k, xs := range keys {
			med[k] = median(xs)
			tot[k] += med[k]
		}
		for _, k := range countKeys {
			for _, x := range keys[k] {
				if x != keys[k][0] {
					r.fail(fmt.Errorf("%s: %s differs between passes (%g vs %g)", in.name, k, keys[k][0], x))
					break
				}
			}
		}
		tot["cli.overhead_ms"] += med["cli_ms"] - med["facade_bare_ms"]
		if s.mode == "sfs" {
			speedups = append(speedups, med["sfs.ms"]/(med["meld.ms"]+med["core.ms"]))
			memRatios = append(memRatios, med["sfs.model_mb"]/med["core.model_mb"])
		}
		cols := map[string]float64{
			"parse_ms": med["irparse.ms"], "andersen_ms": med["andersen.ms"], "memssa_ms": med["memssa.ms"],
			"svfg_ms": med["svfg.ms"], "meld_ms": med["meld.ms"], "core_ms": med["core.ms"],
			"checker_ms": med["checker.ms"], "report_ms": med["report.ms"], "analyze_ms": med["analyze_ms"], "cli_ms": med["cli_ms"],
			"traced_ms": med["facade_traced_ms"], "bare_ms": med["facade_bare_ms"],
		}
		if s.mode == "sfs" {
			cols["sfs_ms"] = med["sfs.ms"]
		}
		r.Rows = append(r.Rows, row{Program: in.name, Requests: len(passes[i]), Values: cols})
	}

	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	tot["core.changed_ratio"] = ratio(tot["core.changed"], tot["core.propagations"])
	tot["trace.overhead_pct"] = (ratio(tot["facade_traced_ms"], tot["facade_bare_ms"]) - 1) * 100
	tot["trace.coverage"] = ratio(tot["layers_ms"], tot["analyze_ms"])
	for _, m := range e.cfg.PerLayer {
		x, ok := tot[m.Name]
		if !ok && r.Correct {
			return nil, fmt.Errorf("per-layer metric %s is not measured", m.Name)
		}
		r.set(m.Name, x, m.Unit)
		r.Samples[m.Name] = len(passes[0])
	}
	if s.mode == "sfs" {
		r.extra("sfs.ms", tot["sfs.ms"], "ms")
		r.extra("sfs.alloc_mb", tot["sfs.alloc_mb"], "MB")
		r.extra("sfs.pops", tot["sfs.pops"], "count")
		r.extra("sfs.propagations", tot["sfs.propagations"], "count")
		r.extra("sfs.changed_ratio", ratio(tot["sfs.changed"], tot["sfs.propagations"]), "ratio")
		r.extra("sfs.pts_sets", tot["sfs.pts_sets"], "count")
		r.extra("sfs.model_mb", tot["sfs.model_mb"], "MB")
		// The paper's Table III view: main phase only, versioning counted
		// on the VSFS side, averaged over programs by geometric mean as
		// vsfs-bench -table 3 does. Its bases are sfs.ms, meld.ms, core.ms,
		// sfs.model_mb and core.model_mb, and each program's row.
		r.extra("paper.speedup", geomean(speedups), "x")
		r.extra("paper.mem_ratio", geomean(memRatios), "x")
	}

	e.printSpans(t.rec.spans)
	path := filepath.Join(e.work, "trace", fmt.Sprintf("%s-seed%d.json", s.name, seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	werr := writeChrome(f, t.rec.spans)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return nil, fmt.Errorf("writing trace: %w", werr)
	}
	fmt.Fprintf(e.stdout, "  trace: %d spans written to %s\n", len(t.rec.spans), path)
	return r, nil
}

// printSpans prints each span name's median duration and self time.
func (e *env) printSpans(spans []span) {
	self := selfTimes(spans)
	durs, selfs := map[string][]float64{}, map[string][]float64{}
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], ms(s.End-s.Start))
		selfs[s.Name] = append(selfs[s.Name], ms(self[s.ID]))
	}
	names := make([]string, 0, len(durs))
	for n := range durs {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(e.stdout, "  %-10s %6s %14s %14s\n", "span", "count", "median_ms", "self_ms")
	for _, n := range names {
		fmt.Fprintf(e.stdout, "  %-10s %6d %14.3f %14.3f\n", n, len(durs[n]), median(durs[n]), median(selfs[n]))
	}
}
