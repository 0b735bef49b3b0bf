// Package meld implements meld labelling (Section IV-B of the paper): a
// prelabelling extension for directed graphs. Prelabelled nodes carry
// distinct atoms; every other node ends up labelled with the meld (here:
// set union) of the labels of the prelabelled nodes that transitively
// reach it. The meld operator is commutative, associative, idempotent
// and has an identity ε (the empty atom set), exactly the laws Section
// IV-B requires; labels are interned so equal label sets share one ID
// and comparing labels is integer comparison.
package meld

import "vsfs/internal/bitset"

// Version is an interned label: an ID standing for a set of prelabel
// atoms. The zero Version is ε, the identity.
type Version = uint32

// Epsilon is the identity label ε.
const Epsilon Version = 0

// Table allocates atoms and evaluates the meld operator over interned
// label sets. It is the label domain 𝒦 of the paper.
type Table struct {
	in    *bitset.Interner
	atoms uint32
	cache map[[2]Version]Version
}

// NewTable returns an empty label domain.
func NewTable() *Table {
	return &Table{
		in:    bitset.NewInterner(),
		cache: make(map[[2]Version]Version),
	}
}

// NewAtom returns a fresh prelabel: a label distinct from every other
// label, melding with which yields a strictly larger label.
func (t *Table) NewAtom() Version {
	a := t.atoms
	t.atoms++
	return t.in.Intern(bitset.Of(a))
}

// Meld returns a ⊙ b.
func (t *Table) Meld(a, b Version) Version {
	if a == b || b == Epsilon {
		return a
	}
	if a == Epsilon {
		return b
	}
	key := [2]Version{a, b}
	if a > b {
		key = [2]Version{b, a}
	}
	if r, ok := t.cache[key]; ok {
		return r
	}
	// Subset fast paths avoid interner churn: melding a label into one
	// that already covers it is the common case at convergence.
	sa, sb := t.in.Get(a), t.in.Get(b)
	var r Version
	switch {
	case sb.SubsetOf(sa):
		r = a
	case sa.SubsetOf(sb):
		r = b
	default:
		u := sa.Clone()
		u.UnionWith(sb)
		r = t.in.Intern(u)
	}
	t.cache[key] = r
	return r
}

// Atoms returns the number of atoms allocated.
func (t *Table) Atoms() int { return int(t.atoms) }

// Distinct returns the number of distinct labels seen (including ε).
func (t *Table) Distinct() int { return t.in.Len() }

// AtomSet exposes the underlying atom set of a label, for tests and
// diagnostics. The result must not be mutated.
func (t *Table) AtomSet(v Version) *bitset.Sparse { return t.in.Get(v) }

// Run performs plain meld labelling on a directed graph: nodes in
// prelabelled get fresh distinct atoms (frozen — [MELD] never changes
// them); every other node starts at ε and accumulates melds from its
// incoming neighbours until a fixed point. succs enumerates the
// out-edges of a node. Returns the final labelling and the table.
//
// This is the general-purpose form used for the paper's Figure 4; the
// points-to analysis uses the per-object two-slot variant implemented in
// internal/core on top of Table.
func Run(numNodes int, succs func(uint32) []uint32, prelabelled []uint32) ([]Version, *Table) {
	t := NewTable()
	label := make([]Version, numNodes)
	frozen := make([]bool, numNodes)
	for _, n := range prelabelled {
		label[n] = t.NewAtom()
		frozen[n] = true
	}
	queue := append([]uint32(nil), prelabelled...)
	inQueue := make([]bool, numNodes)
	for _, n := range prelabelled {
		inQueue[n] = true
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		inQueue[n] = false
		for _, s := range succs(n) {
			if frozen[s] {
				continue
			}
			if m := t.Meld(label[s], label[n]); m != label[s] {
				label[s] = m
				if !inQueue[s] {
					inQueue[s] = true
					queue = append(queue, s)
				}
			}
		}
	}
	return label, t
}
