package lint

import (
	"go/ast"
	"go/types"
)

// GuardTick requires every unbounded loop in the solver worklist
// packages to reach a checkpoint: guard.Tick, or the Tick of a
// guard.Meter, through which a phase charges its storage. The
// guard subsystem's budget accounting (and its exact-conservation
// oracle invariant) only sees work that passes a checkpoint; an
// unbounded drain loop with no reachable Tick is work the budget
// cannot bound and a cancellation the caller cannot deliver.
//
// A loop is "unbounded" unless it is the classic three-clause counter
// form (init; cond; post) or a `range` statement, both of which are
// bounded by data the caller already paid for. Reachability is
// transitive through same-package functions and methods: a loop whose
// body calls a helper that ticks is covered.
var GuardTick = &Analyzer{
	Name: "guardtick",
	Doc: "unbounded loops in solver worklist packages must reach a guard.Tick checkpoint " +
		"so budget coverage and cancellation latency cannot silently regress",
	Run: runGuardTick,
}

const guardPath = "vsfs/internal/guard"

// guardTickScope is the set of worklist solver packages: the three
// backends, the versioned core, and the graph toolkit whose SCC loop
// the core runs under its budget.
var guardTickScope = map[string]bool{
	"vsfs/internal/andersen": true,
	"vsfs/internal/cfgfree":  true,
	"vsfs/internal/core":     true,
	"vsfs/internal/graph":    true,
	"vsfs/internal/sfs":      true,
}

func runGuardTick(p *Pass) []Finding {
	if !guardTickScope[p.Path] {
		return nil
	}
	ticking := tickingFuncs(p)
	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			loop, ok := n.(*ast.ForStmt)
			if !ok || boundedFor(loop) || !doesWork(loop.Body) {
				return true
			}
			if reachesTick(p, loop.Body, ticking) {
				return true
			}
			out = append(out, findingf(p, "guardtick", loop.Pos(),
				"unbounded loop never reaches guard.Tick: its work is invisible to "+
					"budgets and uncancellable; add a checkpoint (guard.Tick(ctx, phase, 0) "+
					"charges nothing) or bound the loop"))
			return true
		})
	}
	return out
}

// boundedFor reports the classic counter form: all three clauses
// present. `for {}`, `for cond {}` and `for ; ; post {}` count as
// unbounded; `for i := 0; i < n; i++` does not.
func boundedFor(loop *ast.ForStmt) bool {
	return loop.Init != nil && loop.Cond != nil && loop.Post != nil
}

// doesWork reports whether the body performs anything beyond control
// flow — a call, assignment, or send. A loop that only spins over
// break/continue has nothing for a budget to meter.
func doesWork(body *ast.BlockStmt) bool {
	work := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.CallExpr, *ast.AssignStmt, *ast.SendStmt, *ast.IncDecStmt:
			work = true
			return false
		}
		return true
	})
	return work
}

// tickingFuncs computes the fixpoint of package functions that reach
// guard.Tick: directly, or through calls to other ticking
// functions in the same package.
func tickingFuncs(p *Pass) map[*types.Func]bool {
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, file := range p.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}
	ticking := map[*types.Func]bool{}
	// Seed: functions with a direct checkpoint call.
	for fn, fd := range decls {
		direct := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if direct {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok && isCheckpoint(p, call) {
				direct = true
				return false
			}
			return true
		})
		if direct {
			ticking[fn] = true
		}
	}
	// Propagate through same-package calls to a fixpoint.
	for changed := true; changed; {
		changed = false
		for fn, fd := range decls {
			if ticking[fn] {
				continue
			}
			calls := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if calls {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := calleeFunc(p, call); callee != nil && ticking[callee] {
					calls = true
					return false
				}
				return true
			})
			if calls {
				ticking[fn] = true
				changed = true
			}
		}
	}
	return ticking
}

// reachesTick reports whether body contains a direct checkpoint call or
// a call to a same-package function known to tick.
func reachesTick(p *Pass, body *ast.BlockStmt, ticking map[*types.Func]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isCheckpoint(p, call) {
			found = true
			return false
		}
		if callee := calleeFunc(p, call); callee != nil && ticking[callee] {
			found = true
			return false
		}
		return true
	})
	return found
}

// isCheckpoint reports a call of guard.Tick or of a guard.Meter's Tick
// method: the guard package's functions and methods named Tick.
func isCheckpoint(p *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Name() == "Tick" && fn.Pkg() != nil && fn.Pkg().Path() == guardPath
}

// calleeFunc resolves a call to its *types.Func when the callee is a
// function or method of the package under analysis; nil otherwise.
func calleeFunc(p *Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := p.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != p.Path {
		return nil
	}
	return fn
}
