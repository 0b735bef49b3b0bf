package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"vsfs/internal/ir"
	"vsfs/internal/workload"
)

// spec is one benchmark workload: which programs it runs and how.
type spec struct {
	name string
	// mode is the analysis the CLI is asked for ("vsfs" or "sfs"); the
	// serve workload always requests the daemon's default, vsfs.
	mode string
	// programs are Table II profile names, run round-robin by the CLI
	// workloads. The serve workload draws from servePool instead.
	programs []string
	serve    bool
}

// specs lists the workloads in the order -workload all runs them. Each
// one exists to make a different layer dominate; BENCHMARK.json says
// why, and the README gives the measured shares behind each choice.
var specs = []spec{
	{name: "large", mode: "vsfs", programs: []string{"lynx", "hyriseConsole"}},
	{name: "store-heavy", mode: "vsfs", programs: []string{"bash", "i3"}},
	{name: "sfs", mode: "sfs", programs: []string{"nano", "psql", "dpkg", "astyle"}},
	{name: "serve", mode: "vsfs", serve: true},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// Serve workload shape: a pool of mid-size programs requested with Zipf
// skew, so most requests hit the daemon's result cache and the rest
// solve the whole pipeline.
const (
	servePoolSize = 32
	serveZipfS    = 1.1
	serveWorkers  = 2
	serveClients  = 2
	serveCache    = 16
	// serveStreamLen bounds the precomputed request stream; a run that
	// outlasts it wraps around.
	serveStreamLen = 4096
	// traceServePrograms is how many of the most-requested pool programs
	// the traced serve run analyses in-process.
	traceServePrograms = 4
)

// poolProfiles are the mid-size Table II profiles the serve pool is
// built from, smallest first, so the most popular ranks are cheap to
// re-render and the long tail is what misses.
var poolProfiles = []string{"du", "dpkg", "nano", "psql", "astyle", "ninja", "mruby"}

// program is one generated input.
type program struct {
	// name identifies the program's structure: a profile name for the
	// Table II program, "<profile>.v<k>" for the k-th serve-pool variant,
	// and "warmup" for the warm-up program. Goldens are keyed by it.
	name string
	// src is the textual IR the analysis binaries receive.
	src string
}

// servePoolName names pool entry j: profile j%7, generator variant j/7.
// Variant 0 is the Table II program itself.
func servePoolName(j int) string {
	p, v := poolProfiles[j%len(poolProfiles)], j/len(poolProfiles)
	if v == 0 {
		return p
	}
	return fmt.Sprintf("%s.v%d", p, v)
}

// build generates the named program's structure: a Table II profile, a
// serve-pool variant of one (its generator seed shifted by 1000 per
// variant) or the small warm-up program.
func build(name string) (*ir.Program, error) {
	if name == "warmup" {
		return workload.Random(1, workload.DefaultRandomConfig()), nil
	}
	base, variant := name, 0
	if i := strings.Index(name, ".v"); i >= 0 {
		v, err := strconv.Atoi(name[i+2:])
		if err != nil {
			return nil, fmt.Errorf("bad program name %q", name)
		}
		base, variant = name[:i], v
	}
	p := workload.ProfileByName(base)
	if p == nil {
		return nil, fmt.Errorf("unknown profile %q", base)
	}
	return workload.Random(p.Seed+1000*int64(variant), p.Cfg), nil
}

// tag is the prefix seed k adds to every value name: none for seed 1,
// so seed 1 runs exactly the Table II programs. Base-36 digits keep it
// a valid identifier for any seed, and '_' never occurs in generated or
// derived names, so the tag can be stripped from reports unambiguously.
func tag(seed int64) string {
	if seed == 1 {
		return ""
	}
	return "s" + strconv.FormatUint(uint64(seed), 36) + "_"
}

// generate returns the named program's text for seed. The seed renames
// values (pointers and objects) with tag(seed) and changes nothing else:
// the same seed gives byte-identical text, another seed gives different
// text, and the analyses do the same work on every seed. Function names
// stay, because the solvers order callees by name; a shared prefix
// keeps every other name-sorted list in the same order, so a report
// with the tag stripped is byte-identical across seeds.
func generate(name string, seed int64) (program, error) {
	prog, err := build(name)
	if err != nil {
		return program{}, err
	}
	if t := tag(seed); t != "" {
		for id := ir.ID(1); int(id) < prog.NumValues(); id++ {
			v := prog.Value(id)
			if v.Kind == ir.Object && v.ObjKind == ir.FuncObj || strings.HasPrefix(v.Name, "__") {
				continue
			}
			v.Name = t + v.Name
		}
	}
	return program{name: name, src: prog.String()}, nil
}

// servePool generates the serve workload's programs; index = Zipf rank.
func servePool(seed int64) ([]program, error) {
	out := make([]program, servePoolSize)
	for j := range out {
		p, err := generate(servePoolName(j), seed)
		if err != nil {
			return nil, err
		}
		out[j] = p
	}
	return out, nil
}

// serveStream is the sequence of pool ranks the clients request,
// Zipf-distributed with exponent serveZipfS. Like the programs' structure
// it is the same for every seed (drawn from generator seed 1): a seed
// only renames what is sent, so every run makes the same hits and
// misses and runs at different seeds measure the same work.
func serveStream() []int {
	r := rand.New(rand.NewSource(1))
	z := rand.NewZipf(r, serveZipfS, 1, servePoolSize-1)
	out := make([]int, serveStreamLen)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// analyzeBody is the POST /analyze request body for p.
func analyzeBody(p program) ([]byte, error) {
	return json.Marshal(struct {
		Source string `json:"source"`
		Lang   string `json:"lang"`
	}{p.src, "ir"})
}
