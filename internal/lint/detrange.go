package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DetRange flags `range` statements over maps whose iteration order
// can reach an ordered output — a slice being appended to, a writer,
// a JSON encoder, a string accumulator, a floating-point accumulator,
// or an obs metric sample — without an intervening sort. Go
// randomizes map iteration order per run, so any such path is a
// byte-identity (report / cache / determinism-oracle) bug by
// construction. Scope: the solver and report-assembly packages named
// in detRangeScope.
//
// The one blessed pattern is collect-then-sort: appending keys or
// values to a slice that is passed to a sort/slices call (or any
// function whose name mentions sort) later in the same function.
var DetRange = &Analyzer{
	Name: "detrange",
	Doc: "map iteration order must not reach slices, writers, JSON, string/float accumulators " +
		"or metric samples without an intervening sort (determinism contract)",
	Run: runDetRange,
}

// detRangeScope lists the packages whose outputs are covered by the
// byte-identity contract: the three solver backends, meld, memory SSA
// and the SVFG they run on, the shape profile, report assembly in the
// facade root, bench tables, diag rendering, and the oracle itself.
var detRangeScope = map[string]bool{
	"vsfs":                   true,
	"vsfs/internal/core":     true,
	"vsfs/internal/sfs":      true,
	"vsfs/internal/cfgfree":  true,
	"vsfs/internal/andersen": true,
	"vsfs/internal/meld":     true,
	"vsfs/internal/memssa":   true,
	"vsfs/internal/svfg":     true,
	"vsfs/internal/shape":    true,
	"vsfs/internal/bench":    true,
	"vsfs/internal/diag":     true,
	"vsfs/internal/oracle":   true,
}

func runDetRange(p *Pass) []Finding {
	if !detRangeScope[p.Path] {
		return nil
	}
	var out []Finding
	for _, file := range p.Files {
		imports := importsOf(file)
		ast.Inspect(file, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				return true
			}
			out = append(out, detRangeFunc(p, imports, fn)...)
			return true
		})
	}
	return out
}

// detRangeFunc checks every map-range inside one function.
func detRangeFunc(p *Pass, imports map[string]string, fn *ast.FuncDecl) []Finding {
	var out []Finding
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := p.Info.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := unwrap(t).(*types.Map); !isMap {
			return true
		}
		for _, sink := range mapOrderSinks(p, imports, rng) {
			if sink.sortTarget != "" && sortedAfter(p, imports, fn, rng.End(), sink.sortTarget) {
				continue
			}
			out = append(out, findingf(p, "detrange", sink.pos,
				"map iteration order reaches %s; sort before emitting (range starts at line %d)",
				sink.what, p.Fset.Position(rng.Pos()).Line))
		}
		return true
	})
	return out
}

// orderSink is one order-sensitive operation found in a map-range
// body. sortTarget, when non-empty, names the slice expression whose
// later sorting launders the nondeterminism.
type orderSink struct {
	pos        token.Pos
	what       string
	sortTarget string
}

// emitMethods are method names that write ordered output: io.Writer,
// bytes.Buffer, strings.Builder, bufio, json.Encoder and logger
// surfaces.
var emitMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"WriteTo": true, "Encode": true, "Print": true, "Printf": true, "Println": true,
}

// obsOrderMethods are obs metric mutators whose result depends on
// sample order: Add/Observe accumulate floats (non-associative), Set
// is last-write-wins. Inc and SetMax are commutative and stay legal,
// as is everything on ObjectAttr (per-object counters).
var obsOrderMethods = map[string]bool{"Add": true, "Observe": true, "Set": true}

// obsOrderTypes are the obs receiver types whose mutators sample in
// order; ObjectAttr is deliberately absent.
var obsOrderTypes = map[string]bool{"Series": true, "Family": true}

// mapOrderSinks walks a map-range body collecting order-sensitive
// operations. Nested function literals are included: they close over
// the iteration and usually run within it.
func mapOrderSinks(p *Pass, imports map[string]string, rng *ast.RangeStmt) []orderSink {
	var sinks []orderSink
	keyed := map[string]bool{} // index expressions keyed by the loop vars are order-insensitive
	for _, v := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := v.(*ast.Ident); ok && id.Name != "_" {
			keyed[id.Name] = true
		}
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			sinks = append(sinks, orderSink{pos: n.Pos(), what: "a channel send"})
		case *ast.AssignStmt:
			sinks = append(sinks, assignSinks(p, n)...)
		case *ast.CallExpr:
			if s, ok := callSink(p, imports, n, keyed); ok {
				sinks = append(sinks, s)
			}
		}
		return true
	})
	return sinks
}

// assignSinks flags order-sensitive accumulating assignments: string
// concatenation and floating-point arithmetic, whose results depend
// on iteration order (the latter through non-associativity).
func assignSinks(p *Pass, as *ast.AssignStmt) []orderSink {
	var out []orderSink
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	default:
		return nil
	}
	for _, lhs := range as.Lhs {
		t := p.Info.TypeOf(lhs)
		if t == nil {
			continue
		}
		b, ok := unwrap(t).(*types.Basic)
		if !ok {
			continue
		}
		switch {
		case as.Tok == token.ADD_ASSIGN && b.Info()&types.IsString != 0:
			out = append(out, orderSink{pos: as.Pos(), what: "a string accumulator (+= concatenation)"})
		case b.Info()&types.IsFloat != 0:
			out = append(out, orderSink{pos: as.Pos(),
				what: "a floating-point accumulator (FP arithmetic is not associative)"})
		}
	}
	return out
}

// callSink classifies one call inside a map-range body.
func callSink(p *Pass, imports map[string]string, call *ast.CallExpr, keyed map[string]bool) (orderSink, bool) {
	// append(target, ...) — order reaches target unless it is later
	// sorted, or the target itself is indexed by the loop key (one
	// slot per key: order-insensitive).
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 0 {
		if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
			target := call.Args[0]
			if ix, ok := target.(*ast.IndexExpr); ok {
				if root, ok := ix.Index.(*ast.Ident); ok && keyed[root.Name] {
					return orderSink{}, false
				}
			}
			name := types.ExprString(target)
			return orderSink{
				pos:        call.Pos(),
				what:       "slice " + name + " via append",
				sortTarget: name,
			}, true
		}
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return orderSink{}, false
	}
	// fmt.Fprint*/Print* straight to a writer.
	if _, ok := isPkgCall(p, imports, call, "fmt",
		"Fprint", "Fprintf", "Fprintln", "Print", "Printf", "Println"); ok {
		return orderSink{pos: call.Pos(), what: "fmt output"}, true
	}
	// Method sinks need the selection to be a method call.
	selInfo, isSel := p.Info.Selections[sel]
	if !isSel || selInfo.Kind() != types.MethodVal {
		return orderSink{}, false
	}
	name := sel.Sel.Name
	recv := selInfo.Recv()
	if obsOrderMethods[name] && obsOrderTypes[namedName(recv)] && typeFromPkg(recv, obsPath) {
		return orderSink{pos: call.Pos(), what: "obs metric sample (" + name + ")"}, true
	}
	if emitMethods[name] {
		return orderSink{pos: call.Pos(), what: "ordered output (" + name + ")"}, true
	}
	return orderSink{}, false
}

// namedName returns the bare name of t's named type (after pointer
// deref), or "".
func namedName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// typeFromPkg reports whether t's named type (after pointer deref)
// was declared in pkgPath.
func typeFromPkg(t types.Type, pkgPath string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == pkgPath
}

// sortedAfter reports whether, somewhere after pos in fn, target is
// handed to a sort: any function from the sort or slices packages, or
// any call whose name mentions "sort"/"Sort" (covering local helpers
// like sortRows), with target appearing among the arguments.
func sortedAfter(p *Pass, imports map[string]string, fn *ast.FuncDecl, pos token.Pos, target string) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		if !isSortCall(p, imports, call) {
			return true
		}
		for _, arg := range call.Args {
			if exprMentions(arg, target) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isSortCall recognizes sort.*/slices.Sort* calls and local helpers
// whose names mention sorting.
func isSortCall(p *Pass, imports map[string]string, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if path := imports[id.Name]; path == "sort" || path == "slices" {
				if _, isPkg := p.Info.Uses[id].(*types.PkgName); isPkg || p.Info.Uses[id] == nil {
					return true
				}
			}
		}
		return strings.Contains(strings.ToLower(fun.Sel.Name), "sort")
	case *ast.Ident:
		return strings.Contains(strings.ToLower(fun.Name), "sort")
	}
	return false
}

// exprMentions reports whether any sub-expression of e renders
// exactly as target — an identifier match that is immune to the
// substring traps of strings.Contains.
func exprMentions(e ast.Expr, target string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if ex, ok := n.(ast.Expr); ok && types.ExprString(ex) == target {
			found = true
			return false
		}
		return true
	})
	return found
}
