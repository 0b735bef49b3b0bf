package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

const (
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 5
	// requestTimeout fails a request that hangs, well inside the time a
	// whole run is allowed.
	requestTimeout = 60 * time.Second
)

// input is a generated program written where the CLI can read it.
type input struct {
	program
	path string
}

// writeInputs writes progs under the build directory.
func (e *env) writeInputs(workload string, progs []program) ([]input, error) {
	dir := filepath.Join(e.work, "inputs", workload)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	out := make([]input, len(progs))
	for i, p := range progs {
		out[i] = input{p, filepath.Join(dir, p.name+".vir")}
		if err := os.WriteFile(out[i].path, []byte(p.src), 0o644); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// cliSample is one vsfs process: wall time from exec until exit with
// stdout drained, its user+system CPU, and its peak RSS.
type cliSample struct {
	wall, cpu, rssMB float64
}

// cli runs `vsfs -json [-mode m] file` once and checks its report.
func (e *env) cli(in input, mode string, v *verifier) (cliSample, error) {
	args := []string{"-json"}
	if mode != "vsfs" {
		args = append(args, "-mode", mode)
	}
	args = append(args, in.path)
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, e.vsfs, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start).Seconds()
	if err != nil {
		return cliSample{}, fmt.Errorf("%s: vsfs: %v: %s", in.name, err, strings.TrimSpace(stderr.String()))
	}
	s := cliSample{wall: wall, cpu: (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return s, v.check(in.name, stdout.Bytes(), false)
}

// setupCLI generates and writes a CLI workload's inputs, loads the
// goldens and makes one warm-up request on a small program outside the
// workload. It returns the inputs (warm-up excluded) and the verifier.
func (e *env) setupCLI(s spec, programs []string, seed int64) ([]input, *verifier, error) {
	progs := make([]program, 0, len(programs)+1)
	for _, name := range append([]string{"warmup"}, programs...) {
		p, err := generate(name, seed)
		if err != nil {
			return nil, nil, err
		}
		progs = append(progs, p)
	}
	ins, err := e.writeInputs(s.name, progs)
	if err != nil {
		return nil, nil, err
	}
	g, err := loadGoldens(e.root)
	if err != nil {
		return nil, nil, err
	}
	v := newVerifier(g, seed)
	if _, err := e.cli(ins[0], s.mode, v); err != nil {
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	return ins[1:], v, nil
}

// runCLI measures a CLI workload: sequential vsfs processes over the
// workload's programs, round-robin, for at least one full pass and until
// the timed phase has lasted seconds.
func (e *env) runCLI(s spec, seed int64, seconds float64) (*result, error) {
	r := newResult(s.name, seed, false)
	var ins []input
	var v *verifier
	var sp speed
	setups := make([]float64, setupReps)
	for i := range setups {
		sp.measure()
		start := time.Now()
		var err error
		if ins, v, err = e.setupCLI(s, s.programs, seed); err != nil {
			return nil, err
		}
		setups[i] = time.Since(start).Seconds()
	}

	samples := make([][]cliSample, len(ins))
	start := time.Now()
	calibrated := sp.total
loop:
	for pass := 0; ; pass++ {
		if pass > 0 && time.Since(start).Seconds() >= seconds {
			break
		}
		sp.measure()
		for i, in := range ins {
			if pass > 0 && time.Since(start).Seconds() >= seconds {
				break loop
			}
			r.Attempted++
			smp, err := e.cli(in, s.mode, v)
			if err != nil {
				r.fail(err)
				continue
			}
			samples[i] = append(samples[i], smp)
		}
	}
	elapsed := time.Since(start).Seconds() - (sp.total - calibrated)

	var walls, medWall, medCPU, medRSS []float64
	for i, in := range ins {
		var w, c, m []float64
		for _, smp := range samples[i] {
			w, c, m = append(w, smp.wall), append(c, smp.cpu), append(m, smp.rssMB)
		}
		walls = append(walls, w...)
		q1, q2, q3 := quartiles(w)
		medWall, medCPU, medRSS = append(medWall, q2), append(medCPU, median(c)), append(medRSS, median(m))
		r.Rows = append(r.Rows, row{Program: in.name, Requests: len(w), Values: map[string]float64{
			"q1_s": q1, "median_s": q2, "q3_s": q3, "cpu_s": median(c), "peak_rss_mb": median(m),
		}})
	}
	f := sp.factor()
	r.set("setup_s", median(setups)*f, "s")
	r.set("request_s", geomean(medWall)*f, "s")
	r.set("tail_s", percentile(walls, tailPct)*f, "s")
	r.set("rps", float64(len(walls))/elapsed/f, "1/s")
	r.set("cpu_s", geomean(medCPU)*f, "s")
	r.set("peak_rss_mb", geomean(medRSS), "MB")
	r.extra("tail_s.supported_pct", tailPercentile(len(walls)), "%")
	sp.report(r)
	r.Samples["setup_s"] = setupReps
	for _, m := range []string{"request_s", "tail_s", "rps", "cpu_s", "peak_rss_mb"} {
		r.Samples[m] = len(walls)
	}
	return r, nil
}
