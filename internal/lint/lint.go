// Package lint is a dependency-free reimplementation of the
// golang.org/x/tools/go/analysis driver pattern: a suite of static
// analyzers that enforce, at review time, the determinism / guard /
// report contracts the oracle otherwise discovers only dynamically by
// fuzzing. The module is stdlib-only, so instead of importing the
// x/tools framework the package defines the same three-part shape —
// an Analyzer with a Run function, a Pass carrying one type-checked
// package, and position-anchored findings — on top of go/ast,
// go/types and `go list -export`.
//
// The shipped analyzers and the invariant each one fronts:
//
//	detrange        map iteration order must not reach a slice,
//	                report, JSON or metric emission without an
//	                intervening sort (oracle: *-determinism,
//	                cache byte identity)
//	noclock         no wall clock or unseeded math/rand inside
//	                deterministic solver paths (oracle: re-solve
//	                determinism)
//	guardtick       unbounded solver loops must reach a
//	                guard.Tick checkpoint (guard: budget
//	                coverage, cancellation latency)
//	metricname      every obs metric registration is declared in
//	                the canonical registry (obs: no dup/typo'd
//	                families on /metrics)
//	reportcontract  Report/shape.Profile/RunRecord JSON fields are
//	                append-only against a committed golden schema
//	                (PR 7 contract; ROADMAP 3's training set)
//
// Findings are suppressed with
//
//	//vsfs:lint-ignore <analyzer> <reason>
//
// on the flagged line or the line above — the same grammar as the
// product checkers' vsfs:ignore, except a non-empty reason is
// mandatory (a reasonless directive is itself a finding).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one invariant checker. It mirrors
// x/tools/go/analysis.Analyzer: Name keys suppressions and -run
// filters, Doc renders in -list and SARIF rule metadata, and exactly
// one of Run / RunModule is set.
type Analyzer struct {
	Name string
	Doc  string

	// Run analyzes a single package. Called once per loaded package;
	// analyzers scope themselves via the Pass (most consult
	// Pass.Path against their own package allowlist).
	Run func(*Pass) []Finding

	// RunModule analyzes the whole module at once, for invariants
	// that span packages (metricname cross-checks every registration
	// site against the one declared registry). Passes arrive sorted
	// by import path.
	RunModule func([]*Pass) []Finding
}

// A Pass carries one type-checked package through an analyzer, plus
// the module-level context every analyzer shares.
type Pass struct {
	Path  string // import path ("vsfs", "vsfs/internal/core", ...)
	Dir   string // absolute directory of the package
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// ModuleRoot is the absolute directory containing go.mod;
	// reportcontract resolves its committed schema against it.
	ModuleRoot string
}

// A Finding is one analyzer hit, anchored to a source position.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string

	// suppressible marks findings eligible for //vsfs:lint-ignore.
	// Meta-findings about the suppression mechanism itself (malformed
	// or unused directives) are not, or a typo'd directive could hide
	// its own diagnostic.
	suppressible bool
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message, f.Analyzer)
}

// findingf builds a suppressible finding at pos.
func findingf(p *Pass, analyzer string, pos token.Pos, format string, args ...any) Finding {
	return Finding{
		Analyzer:     analyzer,
		Pos:          p.Fset.Position(pos),
		Message:      fmt.Sprintf(format, args...),
		suppressible: true,
	}
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DetRange,
		NoClock,
		GuardTick,
		MetricName,
		ReportContract,
	}
}

// ByName resolves a comma-free analyzer name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run executes the given analyzers over the loaded passes, applies
// //vsfs:lint-ignore suppressions, and returns the surviving findings
// sorted by position then analyzer. Meta-findings for malformed and
// unused suppression directives are appended; they cannot themselves
// be suppressed.
func Run(passes []*Pass, analyzers []*Analyzer) []Finding {
	var raw []Finding
	for _, a := range analyzers {
		if a.RunModule != nil {
			raw = append(raw, a.RunModule(passes)...)
			continue
		}
		for _, p := range passes {
			raw = append(raw, a.Run(p)...)
		}
	}

	dirs := collectDirectives(passes)
	var out []Finding
	for _, f := range raw {
		if f.suppressible && dirs.suppress(f) {
			continue
		}
		out = append(out, f)
	}
	out = append(out, dirs.metaFindings(analyzers)...)

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// pkgBase returns the last path element of an import path — the
// package-directory name analyzers use for scoping ("vsfs" for the
// module root).
func pkgBase(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}

// importsOf maps the local name each file binds for its imports to
// the import path, e.g. {"guard": "vsfs/internal/guard"}. Dot and
// blank imports are skipped.
func importsOf(file *ast.File) map[string]string {
	out := map[string]string{}
	for _, im := range file.Imports {
		path := im.Path.Value
		path = path[1 : len(path)-1] // unquote
		name := pkgBase(path)
		if im.Name != nil {
			name = im.Name.Name
			if name == "." || name == "_" {
				continue
			}
		}
		out[name] = path
	}
	return out
}

// isPkgCall reports whether call is pkgName.FuncName(...) where
// pkgName resolves (via the file's imports) to pkgPath, using type
// information to confirm the receiver really is the package and not a
// shadowing local.
func isPkgCall(p *Pass, imports map[string]string, call *ast.CallExpr, pkgPath string, funcs ...string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || imports[id.Name] != pkgPath {
		return "", false
	}
	if obj, ok := p.Info.Uses[id]; ok {
		if _, isPkg := obj.(*types.PkgName); !isPkg {
			return "", false
		}
	}
	for _, fn := range funcs {
		if sel.Sel.Name == fn {
			return fn, true
		}
	}
	return "", false
}

// unwrap peels Named/Alias wrappers off a type.
func unwrap(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}
