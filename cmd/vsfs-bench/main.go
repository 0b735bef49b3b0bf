// Command vsfs-bench regenerates the paper's evaluation tables on the
// synthetic benchmark suite:
//
//	vsfs-bench -table 2            Table II (benchmark characteristics)
//	vsfs-bench -table 3            Table III (time and memory)
//	vsfs-bench -table backends     per-backend comparison (andersen/sfs/vsfs/cfgfree)
//	vsfs-bench -table all          all of the above
//	vsfs-bench -sweep              redundancy sweep (Section V shape claim)
//	vsfs-bench -ablation           on-the-fly vs auxiliary call graph
//	vsfs-bench -versions           versioning effectiveness (sharing factors)
//	vsfs-bench -bench du,bake      restrict to named benchmarks
//	vsfs-bench -runs 5             timed repetitions per analysis
//	vsfs-bench -memlimit 8192      MB cap for the SFS OOM marker
//	vsfs-bench -sanity             verify SFS ≡ VSFS on every profile
//	vsfs-bench -json               emit the table rows as JSON (BENCH artifacts)
//	vsfs-bench -compare base.json  gate against a committed baseline (exit 1 on regression)
//
// -compare reads a previously committed vsfs-bench -json artifact and
// fails (exit 1) when any (bench, backend) pair regresses beyond
// -threshold percent in time or -mem-threshold percent in modelled
// memory, or newly OOMs. It composes with -json: the current report
// still goes to stdout (so CI can archive it) while regressions go to
// stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"vsfs/internal/bench"
	"vsfs/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vsfs-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table := fs.String("table", "all", "which table to produce: 2, 3, backends, or all")
	runs := fs.Int("runs", 1, "timed repetitions per analysis")
	memLimit := fs.Int64("memlimit", 0, "modelled-memory OOM threshold in MB (0 = off)")
	benches := fs.String("bench", "", "comma-separated benchmark names (default: all 15)")
	sweep := fs.Bool("sweep", false, "run the redundancy sweep instead of the tables")
	ablation := fs.Bool("ablation", false, "run the call-graph ablation instead of the tables")
	versions := fs.Bool("versions", false, "report versioning effectiveness (sharing factors)")
	sanity := fs.Bool("sanity", false, "check SFS ≡ VSFS on each profile before timing")
	jsonOut := fs.Bool("json", false, "emit the table rows as machine-readable JSON instead of formatted tables")
	comparePath := fs.String("compare", "", "baseline vsfs-bench -json artifact to gate against (exit 1 on regression)")
	threshold := fs.Float64("threshold", 50, "with -compare: max tolerated time regression in percent (<=0 disables)")
	memThreshold := fs.Float64("mem-threshold", 25, "with -compare: max tolerated modelled-memory regression in percent (<=0 disables)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *sweep {
		points := bench.RunSweep([]float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}, stderr)
		fmt.Fprint(stdout, bench.FormatSweep(points))
		return 0
	}

	profiles := workload.Profiles()
	if *benches != "" {
		var chosen []workload.Profile
		for _, name := range strings.Split(*benches, ",") {
			p := workload.ProfileByName(strings.TrimSpace(name))
			if p == nil {
				fmt.Fprintf(stderr, "unknown benchmark %q; known:", name)
				for _, q := range profiles {
					fmt.Fprintf(stderr, " %s", q.Name)
				}
				fmt.Fprintln(stderr)
				return 2
			}
			chosen = append(chosen, *p)
		}
		profiles = chosen
	}

	if *versions {
		rows := bench.RunVersionStats(profiles, stderr)
		fmt.Fprint(stdout, bench.FormatVersionStats(rows))
		return 0
	}

	if *ablation {
		rows := bench.RunCallGraphAblation(profiles, stderr)
		fmt.Fprint(stdout, bench.FormatAblation(rows))
		return 0
	}

	if *sanity {
		for _, p := range profiles {
			if err := bench.Sanity(p); err != nil {
				fmt.Fprintf(stderr, "sanity: %v\n", err)
				return 1
			}
			fmt.Fprintf(stderr, "sanity: %s ok\n", p.Name)
		}
	}

	opts := bench.Options{Runs: *runs, MemLimit: *memLimit << 20}
	rows := bench.Run(profiles, opts, stderr)

	// gate compares current rows against the committed baseline; it runs
	// after the report is printed so CI archives the artifact either way.
	gate := func() int {
		if *comparePath == "" {
			return 0
		}
		f, err := os.Open(*comparePath)
		if err != nil {
			fmt.Fprintln(stderr, "vsfs-bench:", err)
			return 1
		}
		baseline, err := bench.ReadJSONReport(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(stderr, "vsfs-bench:", err)
			return 1
		}
		regs := bench.Compare(baseline, bench.JSONReportOf(rows), *threshold, *memThreshold)
		if len(regs) == 0 {
			fmt.Fprintf(stderr, "vsfs-bench: no regressions vs %s (time>+%.0f%%, mem>+%.0f%%)\n",
				*comparePath, *threshold, *memThreshold)
			return 0
		}
		fmt.Fprint(stderr, bench.FormatRegressions(regs))
		fmt.Fprintf(stderr, "vsfs-bench: %d regression(s) vs %s\n", len(regs), *comparePath)
		return 1
	}

	if *jsonOut {
		data, err := json.MarshalIndent(bench.JSONReportOf(rows), "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "vsfs-bench:", err)
			return 1
		}
		stdout.Write(append(data, '\n'))
		return gate()
	}

	switch *table {
	case "2":
		fmt.Fprint(stdout, bench.FormatTable2(rows))
	case "3":
		fmt.Fprint(stdout, bench.FormatTable3(rows))
	case "backends":
		fmt.Fprint(stdout, bench.FormatBackends(rows))
	case "all":
		fmt.Fprint(stdout, bench.FormatTable2(rows))
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, bench.FormatTable3(rows))
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, bench.FormatBackends(rows))
	default:
		fmt.Fprintf(stderr, "unknown -table %q\n", *table)
		return 2
	}
	return gate()
}
