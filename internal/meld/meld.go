// Package meld implements meld labelling (Section IV-B of the paper): a
// prelabelling extension for directed graphs. Prelabelled nodes carry
// distinct atoms; every other node ends up labelled with the meld (here:
// set union) of the labels of the prelabelled nodes that transitively
// reach it. The meld operator is commutative, associative, idempotent
// and has an identity ε (the empty atom set), exactly the laws Section
// IV-B requires; labels are interned so equal label sets share one ID
// and comparing labels is integer comparison.
package meld

import (
	"slices"

	"vsfs/internal/bitset"
)

// Version is an interned label: an ID standing for a set of prelabel
// atoms. The zero Version is ε, the identity.
type Version = uint32

// Epsilon is the identity label ε.
const Epsilon Version = 0

// minSlots is the size of a fresh domain's hash table (a power of two).
const minSlots = 16

// Table allocates atoms and evaluates the meld operator over interned
// label sets. It is the label domain 𝒦 of the paper.
//
// A label is a sorted list of atom numbers, stored once in a flat arena
// and found again through an open-addressing hash table, so a meld is
// one merge of two lists and a lookup, with no per-label allocation.
// Reset starts a fresh domain: the labels interned before it can no
// longer be melded or read, and their storage is reused, which keeps a
// domain per object small.
type Table struct {
	atoms uint32
	// shift maps the current domain's local label numbers to Versions:
	// local label i ≥ 1 is Version i+shift, and local label 0 is ε.
	shift Version

	// Local label i's atoms, ascending, are arena[off[i]:off[i+1]], and
	// hash[i] is their hash when the label has two or more atoms.
	arena []uint32
	off   []uint32
	hash  []uint32

	// slots holds the local labels of two or more atoms by hash, with
	// linear probing; 0 marks a free slot. Only a union is ever looked
	// up, and a singleton, being a fresh atom, is never one.
	slots   []uint32
	entries int

	scratch []uint32 // the union being built by Meld
}

// NewTable returns an empty label domain.
func NewTable() *Table {
	return &Table{
		off:   []uint32{0, 0},
		hash:  []uint32{0},
		slots: make([]uint32, minSlots),
	}
}

// Reset starts a fresh domain. The labels interned so far are
// forgotten; Versions issued afterwards continue from Distinct, so ids
// stay unique across domains. Melding or reading a label from before
// the reset is a usage error.
func (t *Table) Reset() {
	t.shift = Version(t.Distinct()) - 1
	t.arena = t.arena[:0]
	t.off = t.off[:2]
	t.hash = t.hash[:1]
	clear(t.slots)
	t.slots = t.slots[:minSlots]
	t.entries = 0
}

// NewAtom returns a fresh prelabel: a label distinct from every other
// label, melding with which yields a strictly larger label.
func (t *Table) NewAtom() Version {
	t.arena = append(t.arena, t.atoms)
	t.atoms++
	return t.push(0)
}

// Meld returns a ⊙ b. One merge of the two atom lists finds whether
// either label covers the other, the common case at convergence, and
// otherwise builds the union, which is interned only when it is new.
func (t *Table) Meld(a, b Version) Version {
	if a == b || b == Epsilon {
		return a
	}
	if a == Epsilon {
		return b
	}
	sa, sb := t.atomsOf(a), t.atomsOf(b)
	u := t.scratch[:0]
	onlyA, onlyB := false, false
	i, j := 0, 0
	for i < len(sa) && j < len(sb) {
		x, y := sa[i], sb[j]
		switch {
		case x < y:
			u = append(u, x)
			i++
			onlyA = true
		case x > y:
			u = append(u, y)
			j++
			onlyB = true
		default:
			u = append(u, x)
			i++
			j++
		}
	}
	onlyA = onlyA || i < len(sa)
	onlyB = onlyB || j < len(sb)
	u = append(append(u, sa[i:]...), sb[j:]...)
	t.scratch = u
	switch {
	case !onlyB:
		return a
	case !onlyA:
		return b
	}
	return t.intern(u)
}

// intern returns the label whose atoms are u, adding it when new.
func (t *Table) intern(u []uint32) Version {
	h := hashAtoms(u)
	mask := uint32(len(t.slots) - 1)
	p := h & mask
	for ; t.slots[p] != 0; p = (p + 1) & mask {
		if l := t.slots[p]; t.hash[l] == h && slices.Equal(t.local(l), u) {
			return l + t.shift
		}
	}
	t.arena = append(t.arena, u...)
	v := t.push(h)
	t.slots[p] = v - t.shift
	if t.entries++; 2*t.entries > len(t.slots) {
		t.grow()
	}
	return v
}

// push closes the label whose atoms end the arena, with hash h.
func (t *Table) push(h uint32) Version {
	t.off = append(t.off, uint32(len(t.arena)))
	t.hash = append(t.hash, h)
	return Version(len(t.hash)-1) + t.shift
}

// grow doubles the hash table and re-inserts the domain's unions.
func (t *Table) grow() {
	n := 2 * len(t.slots)
	if cap(t.slots) >= n {
		t.slots = t.slots[:n]
		clear(t.slots)
	} else {
		t.slots = make([]uint32, n)
	}
	mask := uint32(n - 1)
	for l := uint32(1); int(l) < len(t.hash); l++ {
		if t.off[l+1]-t.off[l] < 2 {
			continue
		}
		p := t.hash[l] & mask
		for t.slots[p] != 0 {
			p = (p + 1) & mask
		}
		t.slots[p] = l
	}
}

// local returns local label l's atoms.
func (t *Table) local(l uint32) []uint32 { return t.arena[t.off[l]:t.off[l+1]] }

// atomsOf returns label v's atoms; v must be ε or of the current domain.
func (t *Table) atomsOf(v Version) []uint32 {
	if v == Epsilon {
		return nil
	}
	return t.local(v - t.shift)
}

// hashAtoms hashes an atom list.
func hashAtoms(xs []uint32) uint32 {
	h := uint64(len(xs))
	for _, x := range xs {
		h = (h ^ uint64(x)) * 0x9e3779b97f4a7c15
	}
	return uint32(h ^ h>>32)
}

// Atoms returns the number of atoms allocated.
func (t *Table) Atoms() int { return int(t.atoms) }

// Distinct returns the number of distinct labels seen (including ε),
// across every domain.
func (t *Table) Distinct() int { return int(t.shift) + len(t.hash) }

// Bytes returns the bytes the table's storage holds. Reset keeps the
// storage for the next domain, so Bytes never falls.
func (t *Table) Bytes() int64 {
	return 4 * int64(cap(t.arena)+cap(t.off)+cap(t.hash)+cap(t.slots)+cap(t.scratch))
}

// AtomSet returns a copy of a label's atom set, for tests and
// diagnostics; v must be ε or of the current domain.
func (t *Table) AtomSet(v Version) *bitset.Sparse { return bitset.Of(t.atomsOf(v)...) }

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
