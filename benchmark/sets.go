package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// setStats summarizes one set's runs of one metric.
type setStats struct {
	Runs   int     `json:"runs"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Spread is (Q3 − Q1) / median.
	Spread float64 `json:"spread"`
}

func statsOf(xs []float64) setStats {
	q1, q2, q3 := quartiles(xs)
	return setStats{Runs: len(xs), Median: q2, Q1: q1, Q3: q3, Spread: spread(xs)}
}

// agreement is how the sets of one (workload, metric) compare.
type agreement struct {
	Workload string     `json:"workload"`
	Metric   string     `json:"metric"`
	Unit     string     `json:"unit"`
	Bound    float64    `json:"bound"`
	Sets     []setStats `json:"sets"`
	// Drift is how much worse the worst later set's median is than the
	// first set's, as a share of the first (negative when better).
	Drift float64 `json:"drift"`
	Agree bool    `json:"agree"`
}

// worse returns how much worse b is than a, as a share of a.
func worse(m metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// agreements checks, for every bounded metric of every workload, that
// each set's spread stays within the bound (set-up time excepted, since
// it is its own measure of drift) and that no later set's median is
// worse than the first's by more than the bound.
func agreements(cfg config, runs []*result, trace bool) []agreement {
	var out []agreement
	var order []string
	seen := map[string]bool{}
	sets := 0
	for _, r := range runs {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			order = append(order, r.Workload)
		}
		sets = max(sets, r.Set)
	}
	for _, w := range order {
		for _, m := range cfg.metrics(trace) {
			if m.Bound == 0 {
				continue
			}
			a := agreement{Workload: w, Metric: m.Name, Unit: m.Unit, Bound: m.Bound, Agree: true}
			for set := 1; set <= sets; set++ {
				var xs []float64
				for _, r := range runs {
					if r.Workload == w && r.Set == set {
						xs = append(xs, r.Metrics[m.Name].Value)
					}
				}
				st := statsOf(xs)
				a.Sets = append(a.Sets, st)
				if m.Name != "setup_s" && st.Spread > m.Bound {
					a.Agree = false
				}
				if set > 1 {
					d := worse(m, a.Sets[0].Median, st.Median)
					if set == 2 || d > a.Drift {
						a.Drift = d
					}
				}
			}
			if a.Drift > m.Bound {
				a.Agree = false
			}
			out = append(out, a)
		}
	}
	return out
}

func agreed(as []agreement) bool {
	for _, a := range as {
		if !a.Agree {
			return false
		}
	}
	return true
}

func printAgreements(w io.Writer, as []agreement) {
	fmt.Fprintf(w, "\n%-12s %-12s %6s  %-34s %-34s %8s  %s\n", "workload", "metric", "bound", "set 1 median [q1, q3] spread", "set 2 median [q1, q3] spread", "drift", "verdict")
	for _, a := range as {
		fmt.Fprintf(w, "%-12s %-12s %5.0f%%", a.Workload, a.Metric, a.Bound*100)
		for i, s := range a.Sets {
			if i < 2 {
				fmt.Fprintf(w, "  %-34s", fmt.Sprintf("%.4g [%.4g, %.4g] %.1f%%", s.Median, s.Q1, s.Q3, s.Spread*100))
			}
		}
		verdict := "agree"
		if !a.Agree {
			verdict = "DISAGREE"
		}
		fmt.Fprintf(w, " %7.1f%%  %s\n", a.Drift*100, verdict)
	}
}

// verdict judges a change's runs against its parent's for one metric, by
// the rules of a claimed gain: "improved" when the change wins at least
// nine in ten same-seed pairs and its median beats the parent's by more
// than the parent's interquartile range; otherwise "unresolved" when
// either side spreads wider than the bound (unless every change run
// beats every parent run), "no worse" when the median is within the
// bound, and "worse" past it.
func verdict(m metricSpec, old, new []float64, pairs [][2]float64) string {
	better := func(a, b float64) bool { return worse(m, a, b) > 0 } // a beats b
	oldMed, newMed := median(old), median(new)
	q1, _, q3 := quartiles(old)
	wins := 0
	for _, p := range pairs {
		if better(p[1], p[0]) {
			wins++
		}
	}
	if len(pairs) > 0 && 10*wins >= 9*len(pairs) && better(newMed, oldMed) && math.Abs(newMed-oldMed) > q3-q1 {
		return "improved"
	}
	if spread(old) > m.Bound || spread(new) > m.Bound {
		for _, n := range new {
			for _, o := range old {
				if !better(n, o) {
					return "unresolved"
				}
			}
		}
		return "no worse"
	}
	if worse(m, oldMed, newMed) <= m.Bound {
		return "no worse"
	}
	return "worse"
}

func readRecord(path string) (record, error) {
	var rec record
	data, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, fmt.Errorf("parsing %s: %w", path, err)
	}
	return rec, nil
}

// compareFiles prints one verdict per (workload, end-to-end metric) for
// the runs in newPath against those in oldPath, pairing runs that share
// a seed. It exits 1 when any metric got worse.
func compareFiles(cfg config, oldPath, newPath string, stdout, stderr io.Writer) int {
	old, err := readRecord(oldPath)
	if err == nil {
		var nw record
		if nw, err = readRecord(newPath); err == nil {
			return printComparison(cfg, old, nw, stdout)
		}
	}
	fmt.Fprintln(stderr, "benchmark:", err)
	return 1
}

func printComparison(cfg config, old, nw record, w io.Writer) int {
	fmt.Fprintf(w, "old: %s (%d runs)\nnew: %s (%d runs)\n", old.Context.Commit, len(old.Runs), nw.Context.Commit, len(nw.Runs))
	fmt.Fprintf(w, "%-12s %-12s %-26s %-26s %8s %7s  %s\n", "workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "change", "wins", "verdict")
	status := 0
	for _, wl := range old.Context.Workloads {
		for _, m := range cfg.EndToEnd {
			bySeed := map[int64][2][]float64{}
			var ov, nv []float64
			for side, rec := range []record{old, nw} {
				for _, r := range rec.Runs {
					if r.Workload != wl || r.Trace {
						continue
					}
					x := r.Metrics[m.Name].Value
					p := bySeed[r.Seed]
					p[side] = append(p[side], x)
					bySeed[r.Seed] = p
					if side == 0 {
						ov = append(ov, x)
					} else {
						nv = append(nv, x)
					}
				}
			}
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			var pairs [][2]float64
			for _, p := range bySeed {
				for i := 0; i < min(len(p[0]), len(p[1])); i++ {
					pairs = append(pairs, [2]float64{p[0][i], p[1][i]})
				}
			}
			wins := 0
			for _, p := range pairs {
				if worse(m, p[0], p[1]) < 0 {
					wins++
				}
			}
			v := verdict(m, ov, nv, pairs)
			if v == "worse" {
				status = 1
			}
			o, n := statsOf(ov), statsOf(nv)
			fmt.Fprintf(w, "%-12s %-12s %-26s %-26s %+7.1f%% %3d/%-3d  %s\n", wl, m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", o.Median, o.Q1, o.Q3),
				fmt.Sprintf("%.4g [%.4g, %.4g]", n.Median, n.Q1, n.Q3),
				(n.Median/o.Median-1)*100, wins, len(pairs), v)
		}
	}
	return status
}
