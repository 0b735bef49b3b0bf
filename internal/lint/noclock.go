package lint

import (
	"go/ast"
	"go/types"
)

// NoClock forbids wall-clock reads and unseeded math/rand inside the
// deterministic solver paths. The paper's versioning correctness
// argument (and this repo's cache/oracle byte-identity contracts)
// require a solve to be a pure function of its input program; a clock
// or global-rand read anywhere on that path is a latent determinism
// break.
//
// The only legal wall-clock shape in scope is the timing-struct
// pattern the facade and solvers use to fill obs timing fields:
//
//	start := time.Now()          // Now as the whole RHS of an assignment
//	stats.Solve += time.Since(start) // Since as the whole RHS (= or +=)
//
// Everything else — clocks in conditions, arguments, returns,
// time.Sleep/After/Tick/Until, timers — is flagged. Packages where
// wall time is part of the job (obs, guard wall budgets, server,
// bench, the binaries) are out of scope.
var NoClock = &Analyzer{
	Name: "noclock",
	Doc: "no wall clock or unseeded math/rand in deterministic solver paths; " +
		"time.Now/Since only as whole-RHS timing-struct assignments",
	Run: runNoClock,
}

// noClockScope is every package on the input→facts path, where a
// solve must be a pure function of the program.
var noClockScope = map[string]bool{
	"vsfs":                   true,
	"vsfs/internal/andersen": true,
	"vsfs/internal/bitset":   true,
	"vsfs/internal/cfg":      true,
	"vsfs/internal/cfgfree":  true,
	"vsfs/internal/checker":  true,
	"vsfs/internal/core":     true,
	"vsfs/internal/diag":     true,
	"vsfs/internal/fsicfg":   true,
	"vsfs/internal/graph":    true,
	"vsfs/internal/ir":       true,
	"vsfs/internal/irparse":  true,
	"vsfs/internal/lang":     true,
	"vsfs/internal/meld":     true,
	"vsfs/internal/memssa":   true,
	"vsfs/internal/oracle":   true,
	"vsfs/internal/sfs":      true,
	"vsfs/internal/shape":    true,
	"vsfs/internal/svfg":     true,
	"vsfs/internal/workload": true,
}

// randSeeded lists math/rand names that construct or type seeded
// sources — legal because the caller controls the seed. Everything
// else reached through the package (top-level Intn, Float64, Perm,
// Shuffle, ...) rides the global, unseeded source.
var randSeeded = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true,
	"NewChaCha8": true, "Rand": true, "Source": true, "Zipf": true,
	"PCG": true, "ChaCha8": true, "Source64": true,
}

func runNoClock(p *Pass) []Finding {
	if !noClockScope[p.Path] {
		return nil
	}
	var out []Finding
	for _, file := range p.Files {
		imports := importsOf(file)
		legal := legalTimingCalls(p, imports, file)
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if fn, ok := isPkgCall(p, imports, n, "time",
					"Now", "Since", "Until", "Sleep", "After", "Tick",
					"NewTimer", "NewTicker", "AfterFunc"); ok {
					if legal[n] {
						return true
					}
					out = append(out, findingf(p, "noclock", n.Pos(),
						"time.%s in deterministic solver path: wall time is only legal as a "+
							"whole-RHS timing-struct assignment (start := time.Now(); d = time.Since(start))", fn))
				}
			case *ast.SelectorExpr:
				out = append(out, randUse(p, imports, n)...)
			}
			return true
		})
	}
	return out
}

// legalTimingCalls marks the time.Now/time.Since calls that appear as
// the entire right-hand side of an assignment — the blessed
// timing-struct pattern.
func legalTimingCalls(p *Pass, imports map[string]string, file *ast.File) map[*ast.CallExpr]bool {
	legal := map[*ast.CallExpr]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != len(as.Lhs) {
			return true
		}
		for _, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok {
				continue
			}
			if _, ok := isPkgCall(p, imports, call, "time", "Now", "Since"); ok {
				legal[call] = true
			}
		}
		return true
	})
	return legal
}

// randUse flags selections through the unseeded math/rand (or
// math/rand/v2) global source.
func randUse(p *Pass, imports map[string]string, sel *ast.SelectorExpr) []Finding {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	path := imports[id.Name]
	if path != "math/rand" && path != "math/rand/v2" {
		return nil
	}
	if obj, ok := p.Info.Uses[id]; ok {
		if _, isPkg := obj.(*types.PkgName); !isPkg {
			return nil
		}
	}
	if randSeeded[sel.Sel.Name] {
		return nil
	}
	return []Finding{findingf(p, "noclock", sel.Pos(),
		"%s.%s uses the global unseeded source in a deterministic solver path; "+
			"construct a seeded rand.New(rand.NewSource(seed)) instead", id.Name, sel.Sel.Name)}
}
