package oracle

import (
	checks "vsfs/internal/checker"
	"vsfs/internal/ir"
)

// runCheckers runs the memory-safety checker suite over one backend's
// facts and buckets the rendered findings by kind. The taint checker is
// deliberately absent: its sanitizer step subtracts a may-analysis fact,
// so precision is not monotone in the underlying points-to sets and no
// ordering invariant relates the three analyses (see checker.Leaks).
func runCheckers(prog *ir.Program, facts checks.FlowFacts) map[checks.Kind][]string {
	out := map[checks.Kind][]string{}
	for _, f := range checks.MemorySafety(prog, facts) {
		out[f.Kind] = append(out[f.Kind], f.String())
	}
	return out
}

// Checker kinds whose findings grow monotonically with the points-to
// facts: bigger pts sets can only add reports. For these the imprecise
// Andersen view must report a superset of VSFS's findings.
var monotoneKinds = []checks.Kind{
	checks.UseAfterFree,
	checks.DoubleFree,
	checks.DanglingReturn,
	checks.StackEscape,
}

// Checker kinds whose findings shrink with bigger facts: null-deref
// fires on *emptiness* and memory-leak on *unreachability*, both of
// which larger sets can only destroy. For these Andersen must report a
// subset of VSFS's findings.
var antitoneKinds = []checks.Kind{
	checks.NullDeref,
	checks.MemoryLeak,
}

// checkCheckers asserts the checker-level consequences of the solver
// invariants, per finding kind on rendered findings:
//
//	checker-vsfs-eq-sfs:    VSFS findings are byte-identical to SFS's
//	                        (every kind — precision theorem lifted to
//	                        the clients)
//	checker-aux-superset:   findings(VSFS) ⊆ findings(Andersen) for the
//	                        monotone kinds
//	checker-aux-subset:     findings(Andersen) ⊆ findings(VSFS) for
//	                        null-deref and memory-leak
//
// Findings are per (instruction, object), so the orderings hold
// elementwise, not just in aggregate counts.
func (c *checker) checkCheckers() {
	prog := c.b.Prog
	sf := runCheckers(prog, c.b.SFS)
	vf := runCheckers(prog, c.b.VSFS)
	af := runCheckers(prog, c.b.Aux)

	for _, kind := range checks.Kinds() {
		if c.full {
			return
		}
		s, v := sf[kind], vf[kind]
		if len(s) != len(v) {
			c.failf("checker-vsfs-eq-sfs", "%s: SFS reports %d finding(s), VSFS %d", kind, len(s), len(v))
			continue
		}
		for i := range s {
			if s[i] != v[i] {
				c.failf("checker-vsfs-eq-sfs", "%s: finding %d differs: SFS %q, VSFS %q", kind, i, s[i], v[i])
				break
			}
		}
	}
	for _, kind := range monotoneKinds {
		if c.full {
			return
		}
		aux := stringSet(af[kind])
		for _, f := range vf[kind] {
			if !aux[f] {
				c.failf("checker-aux-superset", "%s: VSFS reports %q, Andersen does not", kind, f)
				break
			}
		}
	}
	for _, kind := range antitoneKinds {
		if c.full {
			return
		}
		vs := stringSet(vf[kind])
		for _, f := range af[kind] {
			if !vs[f] {
				c.failf("checker-aux-subset", "%s: Andersen reports %q, VSFS does not", kind, f)
				break
			}
		}
	}
}

func stringSet(xs []string) map[string]bool {
	out := make(map[string]bool, len(xs))
	for _, x := range xs {
		out[x] = true
	}
	return out
}
