package vsfs

import (
	"encoding/json"

	"vsfs/internal/checker"
	"vsfs/internal/obs"
)

// VarFacts is one source-level variable's points-to facts.
type VarFacts struct {
	Var      string   `json:"var"`
	PointsTo []string `json:"pointsTo"`
}

// FuncReport is one function's slice of the analysis result.
type FuncReport struct {
	Func    string     `json:"func"`
	Vars    []VarFacts `json:"vars,omitempty"`
	Callees []string   `json:"callees,omitempty"`
}

// Finding is one checker-reported issue, mirroring
// internal/checker.Finding at the facade boundary. File, Line and Col
// are the source position when the program carries provenance
// (mini-C input with Options.Filename set); zero otherwise.
type Finding struct {
	Kind    string `json:"kind"`
	Func    string `json:"func"`
	Label   uint32 `json:"label"`
	File    string `json:"file,omitempty"`
	Line    int    `json:"line,omitempty"`
	Col     int    `json:"col,omitempty"`
	Message string `json:"message"`
}

// Report is the machine-readable form of Dump plus the call graph,
// checker findings, and run statistics. Every slice is sorted, so two
// runs over the same input marshal to byte-identical JSON — the
// property the analysis service's result cache relies on.
type Report struct {
	Mode      string       `json:"mode"`
	Functions []FuncReport `json:"functions"`
	Findings  []Finding    `json:"findings"`
	Stats     Summary      `json:"stats"`

	// Shape is the Table II-style program feature vector; deterministic
	// for a given input, so it never breaks the byte-identity the result
	// cache keys on.
	Shape Shape `json:"shape"`

	// HotObjects is the per-object cost attribution top-K, present only
	// when the run enabled Options.Attr (so default reports stay
	// byte-identical to pre-attribution ones).
	HotObjects []obs.HotObject `json:"hotObjects,omitempty"`

	// Degraded marks a run that exhausted its resource budget and fell
	// down the backend ladder; Degradation is the human-readable
	// reason. Mode reflects the analysis that actually produced the
	// facts ("cfgfree" or "andersen" on degraded runs).
	Degraded    bool   `json:"degraded,omitempty"`
	Degradation string `json:"degradation,omitempty"`
}

// reportTopK bounds the hot-object table embedded in reports; clients
// needing more call Result.HotObjects directly.
const reportTopK = 10

// Report builds the structured result. Order is deterministic
// everywhere: functions in definition order, variables and callees
// sorted by name, findings in instruction order.
func (r *Result) Report() Report {
	rep := Report{
		Mode:        r.mode.String(),
		Findings:    r.Check(),
		Stats:       r.Stats(),
		Shape:       r.shape,
		HotObjects:  r.HotObjects(reportTopK),
		Degraded:    r.degraded,
		Degradation: r.degradation,
	}
	if rep.Findings == nil {
		rep.Findings = []Finding{}
	}
	cg := r.CallGraph()
	for _, f := range r.prog.Funcs {
		if len(f.Name) >= 2 && f.Name[:2] == "__" {
			continue
		}
		fr := FuncReport{Func: f.Name, Callees: cg[f.Name]}
		names, groups := r.varGroups(f)
		for _, n := range names {
			if groups[n].IsEmpty() {
				continue
			}
			fr.Vars = append(fr.Vars, VarFacts{Var: n, PointsTo: r.objNames(groups[n])})
		}
		rep.Functions = append(rep.Functions, fr)
	}
	return rep
}

// MarshalJSON is not customised; Report marshals deterministically
// because it holds only structs and sorted slices. MarshalIndent is a
// convenience wrapper producing the canonical rendering used by
// cmd/vsfs -json and the analysis server.
func (rep Report) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(rep, "", "  ")
}

// CheckConfig tunes Result.CheckWith. The zero value runs the
// memory-safety checkers only; naming both a taint source and sink adds
// the information-flow checker, optionally hardened with sanitizer
// functions.
type CheckConfig struct {
	// TaintSource marks every object allocated in the named function
	// sensitive; TaintSink reports sensitive objects reaching arguments
	// of calls to the named function. Both must be set to enable the
	// taint checker.
	TaintSource string `json:"taintSource,omitempty"`
	TaintSink   string `json:"taintSink,omitempty"`
	// TaintSanitizers declassify everything reachable from arguments of
	// calls to the named functions.
	TaintSanitizers []string `json:"taintSanitizers,omitempty"`
}

// Check runs the memory-safety clients (null/uninitialised dereference,
// dangling returns, stack escapes, use-after-free, double-free,
// memory-leak) over the solved facts of this run's analysis mode.
// Findings come back in instruction order per client — deterministic
// for a given program.
func (r *Result) Check() []Finding {
	return r.CheckWith(CheckConfig{})
}

// CheckWith is Check plus optional taint checking; see CheckConfig.
func (r *Result) CheckWith(cfg CheckConfig) []Finding {
	all := checker.MemorySafety(r.prog, r.backend)
	if cfg.TaintSource != "" && cfg.TaintSink != "" {
		sans := make([]checker.LeakSanitizer, 0, len(cfg.TaintSanitizers))
		for _, s := range cfg.TaintSanitizers {
			sans = append(sans, checker.LeakSanitizer{Func: s})
		}
		all = append(all, checker.Leaks(r.prog, r.backend, r.backend,
			checker.LeakSource{Func: cfg.TaintSource},
			checker.LeakSink{Func: cfg.TaintSink}, sans...)...)
	}
	out := make([]Finding, 0, len(all))
	for _, f := range all {
		out = append(out, Finding{
			Kind:    string(f.Kind),
			Func:    f.Func,
			Label:   f.Label,
			File:    r.prog.File,
			Line:    f.Pos.Line,
			Col:     f.Pos.Col,
			Message: f.Message,
		})
	}
	return out
}
