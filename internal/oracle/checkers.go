package oracle

import (
	"vsfs/internal/bitset"
	checks "vsfs/internal/checker"
	"vsfs/internal/ir"
)

// Facts adapters: one checker.FlowFacts view per analysis. The Andersen
// view answers every flow-sensitive question with the flow-insensitive
// summary — ContentsBefore(ℓ, o) and ObjectSummary(o) both collapse to
// pts_aux(o) — which is exactly the over-approximation the ordering
// invariants below quantify.

type sfsFacts struct{ b *Bundle }

func (f sfsFacts) PointsTo(v ir.ID) *bitset.Sparse       { return f.b.SFS.PointsTo(v) }
func (f sfsFacts) ObjectSummary(o ir.Obj) *bitset.Sparse { return f.b.SFS.ObjectSummary(o) }
func (f sfsFacts) ContentsBefore(label uint32, o ir.Obj) *bitset.Sparse {
	return f.b.SFS.InSet(label, o)
}

type vsfsFacts struct{ b *Bundle }

func (f vsfsFacts) PointsTo(v ir.ID) *bitset.Sparse       { return f.b.VSFS.PointsTo(v) }
func (f vsfsFacts) ObjectSummary(o ir.Obj) *bitset.Sparse { return f.b.VSFS.ObjectSummary(o) }
func (f vsfsFacts) ContentsBefore(label uint32, o ir.Obj) *bitset.Sparse {
	return f.b.VSFS.ConsumedSet(label, o)
}

type auxFacts struct{ b *Bundle }

func (f auxFacts) PointsTo(v ir.ID) *bitset.Sparse       { return f.b.Aux.PointsTo(v) }
func (f auxFacts) ObjectSummary(o ir.Obj) *bitset.Sparse { return f.b.Aux.ObjectSummary(o) }
func (f auxFacts) ContentsBefore(label uint32, o ir.Obj) *bitset.Sparse {
	return f.b.Aux.ObjectSummary(o)
}

// runCheckers runs the full memory-safety checker suite over one facts
// view and buckets the rendered findings by kind. The taint checker is
// deliberately absent: its sanitizer step subtracts a may-analysis fact,
// so precision is not monotone in the underlying points-to sets and no
// ordering invariant relates the three analyses (see checker.Leaks).
func runCheckers(prog *ir.Program, facts checks.FlowFacts) map[checks.Kind][]string {
	out := map[checks.Kind][]string{}
	add := func(fs []checks.Finding) {
		for _, f := range fs {
			out[f.Kind] = append(out[f.Kind], f.String())
		}
	}
	add(checks.NullDerefs(prog, facts))
	add(checks.DanglingReturns(prog, facts))
	add(checks.StackEscapes(prog, facts))
	add(checks.UseAfterFrees(prog, facts))
	add(checks.DoubleFrees(prog, facts))
	add(checks.MemoryLeaks(prog, facts))
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
	sf := runCheckers(prog, sfsFacts{c.b})
	vf := runCheckers(prog, vsfsFacts{c.b})
	af := runCheckers(prog, auxFacts{c.b})

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
