// Command vsfs analyses a mini-C (.c / .mc) or textual-IR (.vir) file
// and prints the points-to solution, the resolved call graph, and
// analysis statistics.
//
//	vsfs -mode vsfs prog.c         analyse with VSFS (default)
//	vsfs -mode sfs prog.vir        analyse with the SFS baseline
//	vsfs -mode cfgfree prog.c      CFG-free flow-sensitive backend
//	vsfs -mode andersen prog.c     flow-insensitive only
//	vsfs -compare prog.c           run SFS and VSFS, verify equal results
//	vsfs -dump-ir prog.c           print the lowered IR and exit
//	vsfs -dot prog.c               print the SVFG as Graphviz dot
//	vsfs -callgraph prog.c         print the call graph
//	vsfs -check prog.c             run the memory-safety checkers
//	vsfs -check -sarif prog.c      ... emitting SARIF 2.1.0 on stdout
//	vsfs -why p prog.c             explain why p points to what it does
//	vsfs -json prog.c              print the full result as canonical JSON
//	vsfs -timeout 5s prog.c        abort cleanly if analysis exceeds 5s
//	vsfs -max-steps 1e6 prog.c     degrade down the ladder past a step budget
//	vsfs -max-mem 64e6 prog.c      degrade down the ladder past a memory budget
//	vsfs -trace out.json prog.c    write a Chrome trace of the pipeline phases
//	vsfs -attr prog.c              attribute solver cost to abstract objects
//	vsfs -ledger runs.jsonl prog.c append a run record to a persistent ledger
//	vsfs -version                  print version and exit
//	vsfs -v prog.c                 log analysis progress to stderr
//
// The checker suite (-check) runs null-deref, dangling-return,
// stack-escape, use-after-free, double-free and memory-leak over the
// facts of the selected -mode (VSFS by default), and the taint checker
// when -taint-source and -taint-sink name functions. Findings print as
// "file:line:col: severity: message [kind]" or, with -sarif, as a
// SARIF 2.1.0 log. "// vsfs:ignore(kind)" comments suppress findings
// on their line; -baseline hides findings recorded with
// -write-baseline; -severity overrides per-kind severities.
//
// Exit codes: 0 success; 1 analysis error; 2 usage error; 3 success
// with a degraded result (the CFG-free rung or the flow-insensitive
// floor) after exceeding -max-steps/-max-mem; 4 timed out (-timeout);
// 5 findings reported by -check (takes precedence over 3).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"vsfs"
	"vsfs/internal/diag"
	"vsfs/internal/guard"
	"vsfs/internal/irparse"
	"vsfs/internal/lang"
	"vsfs/internal/obs"
)

// Exit codes; part of the CLI contract (see the package comment).
const (
	exitOK       = 0 // full-precision success
	exitError    = 1 // analysis error
	exitUsage    = 2 // bad flags or arguments
	exitDegraded = 3 // success, but degraded down the backend ladder
	exitTimeout  = 4 // -timeout elapsed before the analysis finished
	exitFindings = 5 // -check reported at least one finding
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, performs the
// requested action, writes to the given streams and returns the exit
// code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vsfs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mode := fs.String("mode", "vsfs", "analysis: vsfs, sfs, cfgfree, or andersen")
	compare := fs.Bool("compare", false, "run SFS and VSFS and verify identical results")
	dumpIR := fs.Bool("dump-ir", false, "print the lowered IR and exit")
	dot := fs.Bool("dot", false, "print the SVFG in Graphviz dot format and exit")
	callgraph := fs.Bool("callgraph", false, "print the resolved call graph")
	stats := fs.Bool("stats", false, "print analysis statistics")
	check := fs.Bool("check", false, "run the memory-safety checkers (null-deref, dangling-return, stack-escape, use-after-free, double-free, memory-leak)")
	sarif := fs.Bool("sarif", false, "with -check: print findings as SARIF 2.1.0 instead of text")
	baselinePath := fs.String("baseline", "", "with -check: hide findings recorded in this baseline file")
	writeBaseline := fs.String("write-baseline", "", "with -check: record current findings to this baseline file and exit")
	severityFlag := fs.String("severity", "", "with -check: per-kind severity overrides, e.g. null-deref=error,memory-leak=note")
	taintSource := fs.String("taint-source", "", "with -check: treat objects allocated in this function as sensitive")
	taintSink := fs.String("taint-sink", "", "with -check: report sensitive objects reaching arguments of this function")
	taintSanitizers := fs.String("taint-sanitizers", "", "with -check: comma-separated functions whose call arguments are declassified")
	why := fs.String("why", "", "explain a points-to fact: print value-flow witnesses for every object the named variable may reference (name or func.name)")
	jsonOut := fs.Bool("json", false, "print the full result (points-to, call graph, findings, stats) as canonical JSON")
	timeout := fs.Duration("timeout", 0, "abort analysis after this long, exiting 4 (0 = no limit)")
	maxSteps := fs.Int64("max-steps", 0, "worklist-step budget; past it the run degrades to the flow-insensitive result and exits 3 (0 = no limit)")
	maxMem := fs.Int64("max-mem", 0, "points-to storage budget in bytes; past it the run degrades and exits 3 (0 = no limit)")
	traceOut := fs.String("trace", "", "write the pipeline phases as Chrome trace_event JSON to this file (open in Perfetto)")
	attr := fs.Bool("attr", false, "attribute solver cost (pops, propagations, sets, melds) to abstract objects and print the hot-object table")
	attrTop := fs.Int("attr-top", 10, "with -attr: number of hot objects to print")
	ledgerPath := fs.String("ledger", "", "append a run record (shape, backend, timings, budget spend, findings) to this JSONL ledger")
	version := fs.Bool("version", false, "print version and exit")
	verbose := fs.Bool("v", false, "log analysis progress to stderr")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}

	if *version {
		fmt.Fprintf(stdout, "vsfs %s %s\n", obs.Version, obs.GoVersion())
		return exitOK
	}

	logger := obs.Discard()
	if *verbose {
		logger, _ = obs.NewLogger(stderr, "text", slog.LevelDebug)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	ctx = guard.WithBudget(ctx, guard.NewBudget(*maxSteps, *maxMem, 0))

	if *traceOut != "" {
		tr := obs.NewTrace()
		ctx = obs.NewContext(ctx, tr)
		// The trace is written on every exit path — a timed-out run still
		// leaves the spans that completed.
		defer func() {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintln(stderr, "vsfs: trace:", err)
				return
			}
			defer f.Close()
			if err := tr.WriteJSON(f); err != nil {
				fmt.Fprintln(stderr, "vsfs: trace:", err)
				return
			}
			logger.Info("trace written", "file", *traceOut, "spans", len(tr.Events()))
		}()
	}

	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: vsfs [flags] <file.c|file.vir>")
		fmt.Fprintln(stderr, "exit codes: 0 ok, 1 error, 2 usage, 3 degraded result, 4 timeout, 5 findings")
		fs.PrintDefaults()
		return exitUsage
	}
	fail := func(err error) int {
		if errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(stderr, "vsfs: analysis timed out (-timeout %v)\n", *timeout)
			return exitTimeout
		}
		fmt.Fprintln(stderr, "vsfs:", err)
		return exitError
	}
	// appendLedger records the run in the persistent ledger; a ledger
	// failure is reported but never changes the exit code — telemetry
	// must not break the analysis contract.
	appendLedger := func(r *vsfs.Result, findings int) {
		if *ledgerPath == "" {
			return
		}
		led, lerr := obs.OpenLedger(*ledgerPath, 0)
		if lerr != nil {
			fmt.Fprintln(stderr, "vsfs: ledger:", lerr)
			return
		}
		defer led.Close()
		if lerr := led.Append(r.RunRecord(time.Now(), findings)); lerr != nil {
			fmt.Fprintln(stderr, "vsfs: ledger:", lerr)
		}
	}
	// exit folds degradation into a success path's code and tells the
	// user on stderr (stdout stays the machine-readable result).
	exit := func(results ...*vsfs.Result) int {
		for _, r := range results {
			if r.Degraded() {
				fmt.Fprintln(stderr, "vsfs: degraded:", r.Degradation())
				return exitDegraded
			}
		}
		return exitOK
	}
	path := fs.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		return fail(err)
	}
	isIR := strings.HasSuffix(path, ".vir")

	analyze := func(m vsfs.Mode) (*vsfs.Result, error) {
		input := vsfs.InputC
		if isIR {
			input = vsfs.InputIR
		}
		logger.Info("analyzing", "file", path, "mode", m.String(), "bytes", len(src))
		r, err := vsfs.AnalyzeContext(ctx, string(src), vsfs.Options{Mode: m, Input: input, Filename: path, Attr: *attr})
		if err == nil {
			t := r.Timings()
			logger.Info("analysis complete", "total", t.Total,
				"andersen", t.Andersen, "memssa", t.MemSSA, "svfg", t.SVFG, "solve", t.Solve)
		}
		return r, err
	}

	if *dot {
		// A FlowInsensitive run stops after building the pristine SVFG,
		// under the same phase guards and budget ladder as every run.
		r, err := analyze(vsfs.FlowInsensitive)
		if err != nil {
			return fail(err)
		}
		if err := r.WriteDot(stdout); err != nil {
			if !r.Degraded() {
				return fail(err)
			}
			fmt.Fprintln(stderr, "vsfs:", err)
		}
		return exit(r)
	}

	if *dumpIR {
		if isIR {
			prog, err := irparse.Parse(string(src))
			if err != nil {
				return fail(err)
			}
			fmt.Fprint(stdout, prog.String())
			return 0
		}
		prog, err := lang.Compile(string(src))
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, prog.String())
		return 0
	}

	if *why != "" {
		r, err := analyze(vsfs.VSFS)
		if err != nil {
			return fail(err)
		}
		// "f.x" names x in function f only when f is a function of the
		// program; otherwise the whole string is the name, so a dotted IR
		// temp like "p.4" still matches exactly.
		fn, name := "", *why
		if f, x, ok := strings.Cut(*why, "."); ok && slices.Contains(r.Functions(), f) {
			fn, name = f, x
		}
		witnesses := r.Explain(fn, name)
		for _, w := range witnesses {
			fmt.Fprint(stdout, w)
		}
		if len(witnesses) == 0 {
			fmt.Fprintf(stdout, "no points-to facts found for %q\n", *why)
		}
		return exit(r)
	}

	if *compare {
		rs, err := analyze(vsfs.SFS)
		if err != nil {
			return fail(err)
		}
		rv, err := analyze(vsfs.VSFS)
		if err != nil {
			return fail(err)
		}
		stripHeader := func(s string) string {
			if i := strings.IndexByte(s, '\n'); i >= 0 {
				return s[i+1:]
			}
			return s
		}
		if stripHeader(rs.Dump()) != stripHeader(rv.Dump()) {
			fmt.Fprintln(stderr, "MISMATCH: SFS and VSFS disagree")
			fmt.Fprintln(stderr, "--- SFS ---\n"+rs.Dump())
			fmt.Fprintln(stderr, "--- VSFS ---\n"+rv.Dump())
			return 1
		}
		fmt.Fprintln(stdout, "SFS ≡ VSFS: identical points-to solutions")
		fmt.Fprint(stdout, rv.Dump())
		return exit(rs, rv)
	}

	m, err := vsfs.ParseMode(*mode)
	if err != nil {
		return fail(err)
	}

	if *check || *sarif {
		severities, serr := parseSeverities(*severityFlag)
		if serr != nil {
			fmt.Fprintln(stderr, "vsfs:", serr)
			return exitUsage
		}
		r, err := analyze(m)
		if err != nil {
			return fail(err)
		}
		cfg := vsfs.CheckConfig{TaintSource: *taintSource, TaintSink: *taintSink}
		if *taintSanitizers != "" {
			cfg.TaintSanitizers = strings.Split(*taintSanitizers, ",")
		}
		raw := r.CheckWith(cfg)
		appendLedger(r, len(raw))
		return runCheck(r, string(src), path, checkOpts{
			sarif:         *sarif,
			baseline:      *baselinePath,
			writeBaseline: *writeBaseline,
			severities:    severities,
			cfg:           cfg,
			raw:           raw,
		}, stdout, stderr)
	}

	r, err := analyze(m)
	if err != nil {
		return fail(err)
	}

	if *jsonOut {
		rep := r.Report()
		if *attr {
			// The CLI honors -attr-top in JSON too; the embedded table
			// defaults to the report's own top-K.
			rep.HotObjects = r.HotObjects(*attrTop)
		}
		data, merr := rep.MarshalIndent()
		if merr != nil {
			return fail(merr)
		}
		stdout.Write(append(data, '\n'))
		appendLedger(r, len(rep.Findings))
		return exit(r)
	}
	fmt.Fprint(stdout, r.Dump())
	if *attr {
		fmt.Fprintln(stdout, "\nhot objects (by attributed solver cost):")
		fmt.Fprintf(stdout, "  %-24s %12s %10s %8s %8s\n", "object", "props", "pops", "sets", "melds")
		for _, h := range r.HotObjects(*attrTop) {
			fmt.Fprintf(stdout, "  %-24s %12d %10d %8d %8d\n", h.Object, h.Propagations, h.Pops, h.Sets, h.Melds)
		}
	}
	if *ledgerPath != "" {
		appendLedger(r, len(r.Check()))
	}

	if *callgraph {
		cg := r.CallGraph()
		fns := make([]string, 0, len(cg))
		for fn := range cg {
			fns = append(fns, fn)
		}
		sort.Strings(fns)
		fmt.Fprintln(stdout, "\ncall graph:")
		for _, fn := range fns {
			fmt.Fprintf(stdout, "  %s → %s\n", fn, strings.Join(cg[fn], ", "))
		}
	}
	if *stats {
		s := r.Stats()
		fmt.Fprintf(stdout, "\nstats: mode=%s funcs=%d nodes=%d dEdges=%d iEdges=%d topLevel=%d addrTaken=%d\n",
			s.Mode, s.Functions, s.SVFGNodes, s.DirectEdges, s.IndirectEdges, s.TopLevelVars, s.AddressTaken)
		if s.Mode != "andersen" {
			fmt.Fprintf(stdout, "       processed=%d propagations=%d ptsSets=%d\n",
				s.NodesProcessed, s.Propagations, s.PtsSets)
		}
		if s.Mode == "vsfs" {
			fmt.Fprintf(stdout, "       prelabels=%d distinctVersions=%d\n", s.Prelabels, s.DistinctVersions)
		}
	}
	return exit(r)
}

// checkOpts carries the -check presentation knobs into runCheck.
type checkOpts struct {
	sarif         bool
	baseline      string
	writeBaseline string
	severities    map[string]diag.Severity
	cfg           vsfs.CheckConfig
	// raw is the precomputed checker output; runCheck computes it from
	// cfg when nil (the ledger path needs the count, so the caller may
	// have it already).
	raw []vsfs.Finding
}

// parseSeverities parses "kind=level,kind=level" severity overrides.
func parseSeverities(s string) (map[string]diag.Severity, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]diag.Severity{}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 || kv[0] == "" {
			return nil, fmt.Errorf("bad -severity entry %q (want kind=level)", part)
		}
		switch lvl := diag.Severity(kv[1]); lvl {
		case diag.Error, diag.Warning, diag.Note:
			out[kv[0]] = lvl
		default:
			return nil, fmt.Errorf("bad severity %q (want error, warning or note)", kv[1])
		}
	}
	return out, nil
}

// runCheck turns the analysis result into rendered diagnostics: convert
// checker findings through the diag engine (severities, fingerprints),
// apply inline suppressions and the baseline, then render text or
// SARIF. Findings exit 5; a degraded run without findings exits 3.
func runCheck(r *vsfs.Result, src, path string, o checkOpts, stdout, stderr io.Writer) int {
	raw := o.raw
	if raw == nil {
		raw = r.CheckWith(o.cfg)
	}
	rawd := make([]diag.Raw, len(raw))
	for i, f := range raw {
		rawd[i] = diag.Raw{Kind: f.Kind, Func: f.Func, Label: f.Label, Line: f.Line, Col: f.Col, Message: f.Message}
	}
	findings := diag.New(path, rawd, o.severities)
	findings, suppressed := diag.Suppress(src, findings)

	baselined := 0
	if o.baseline != "" {
		bf, err := os.Open(o.baseline)
		if err != nil {
			fmt.Fprintln(stderr, "vsfs:", err)
			return exitError
		}
		b, err := diag.ReadBaseline(bf)
		bf.Close()
		if err != nil {
			fmt.Fprintln(stderr, "vsfs:", err)
			return exitError
		}
		findings, baselined = b.Filter(findings)
	}

	if r.Degraded() {
		fmt.Fprintln(stderr, "vsfs: degraded:", r.Degradation())
	}

	if o.writeBaseline != "" {
		f, err := os.Create(o.writeBaseline)
		if err != nil {
			fmt.Fprintln(stderr, "vsfs:", err)
			return exitError
		}
		werr := diag.NewBaseline(findings).Write(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(stderr, "vsfs:", werr)
			return exitError
		}
		fmt.Fprintf(stdout, "baseline with %d finding(s) written to %s\n", len(findings), o.writeBaseline)
		if r.Degraded() {
			return exitDegraded
		}
		return exitOK
	}

	if o.sarif {
		if err := diag.WriteSARIF(stdout, findings); err != nil {
			fmt.Fprintln(stderr, "vsfs:", err)
			return exitError
		}
	} else {
		diag.RenderText(stdout, findings)
		fmt.Fprintf(stdout, "%d finding(s)", len(findings))
		if suppressed > 0 {
			fmt.Fprintf(stdout, ", %d suppressed", suppressed)
		}
		if baselined > 0 {
			fmt.Fprintf(stdout, ", %d baselined", baselined)
		}
		fmt.Fprintln(stdout)
	}
	switch {
	case len(findings) > 0:
		return exitFindings
	case r.Degraded():
		return exitDegraded
	}
	return exitOK
}
