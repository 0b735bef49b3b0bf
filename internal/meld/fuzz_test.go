package meld

import (
	"fmt"
	"testing"

	"vsfs/internal/bitset"
)

// FuzzMeldLaws drives a Table with a byte-coded sequence of NewAtom,
// Meld and Reset calls beside a naive model that keeps each label's
// atom set as a bitset.Sparse. Within a domain, equal contents must
// share one id and distinct contents must not; ε is the identity and
// melding is commutative, associative and idempotent; AtomSet equals
// the model; and Distinct counts the model's distinct sets, ε once
// plus every domain's non-empty ones.
func FuzzMeldLaws(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 1, 2, 1, 3, 4})
	f.Add([]byte{0, 0, 0, 1, 1, 2, 2, 3, 4, 3, 0, 0, 1, 1, 2, 1, 0, 5})
	f.Add([]byte{0, 0, 0, 0, 1, 1, 2, 1, 3, 4, 1, 5, 6, 1, 7, 8, 3, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := newModel(NewTable())
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		for len(data) > 0 {
			switch op := next(); op % 5 {
			case 0, 1:
				m.atom(t)
			case 2, 3:
				a, b, c := m.pick(next()), m.pick(next()), m.pick(next())
				m.checkLaws(t, a, b, c)
			case 4:
				m.reset()
			}
		}
		if got, want := m.tab.Distinct(), m.distinct(); got != want {
			t.Fatalf("Distinct = %d, model counts %d", got, want)
		}
	})
}

// model mirrors a Table: the atom set of every label of the current
// domain, by id and by contents, and the distinct sets of the domains
// already closed.
type model struct {
	tab    *Table
	atoms  uint32
	byID   map[Version]*bitset.Sparse
	byKey  map[string]Version
	pool   []Version // the current domain's labels, ε first
	closed int       // non-empty distinct sets of earlier domains
	seen   map[Version]bool
}

func newModel(tab *Table) *model {
	m := &model{tab: tab, seen: map[Version]bool{}}
	m.reset()
	return m
}

func (m *model) reset() {
	m.closed += len(m.byKey)
	if m.byID != nil {
		m.tab.Reset()
	}
	m.byID = map[Version]*bitset.Sparse{Epsilon: bitset.New()}
	m.byKey = map[string]Version{}
	m.pool = []Version{Epsilon}
}

func (m *model) distinct() int { return 1 + m.closed + len(m.byKey) }

func (m *model) pick(b int) Version { return m.pool[b%len(m.pool)] }

func (m *model) atom(t *testing.T) {
	v := m.tab.NewAtom()
	m.record(t, v, bitset.Of(m.atoms))
	m.atoms++
	if m.tab.Atoms() != int(m.atoms) {
		t.Fatalf("Atoms = %d, want %d", m.tab.Atoms(), m.atoms)
	}
}

// meld melds a and b in the table and checks the result on the model.
func (m *model) meld(t *testing.T, a, b Version) Version {
	v := m.tab.Meld(a, b)
	u := m.byID[a].Clone()
	u.UnionWith(m.byID[b])
	m.record(t, v, u)
	return v
}

// record checks label v against its model contents s: one id per
// contents within the domain, an id never reused from an earlier
// domain, and AtomSet equal to s.
func (m *model) record(t *testing.T, v Version, s *bitset.Sparse) {
	t.Helper()
	key := fmt.Sprint(s.Slice())
	if s.IsEmpty() {
		if v != Epsilon {
			t.Fatalf("empty contents have id %d, want ε", v)
		}
		return
	}
	if old, ok := m.byKey[key]; ok && old != v {
		t.Fatalf("contents %s have ids %d and %d", key, old, v)
	}
	if old, ok := m.byID[v]; ok && !old.Equal(s) {
		t.Fatalf("id %d stands for %v and %v", v, old, s)
	}
	if _, ok := m.byID[v]; !ok {
		if m.seen[v] {
			t.Fatalf("id %d reused from an earlier domain", v)
		}
		m.seen[v] = true
		m.byID[v], m.byKey[key] = s, v
		m.pool = append(m.pool, v)
	}
	if got := m.tab.AtomSet(v); !got.Equal(s) {
		t.Fatalf("AtomSet(%d) = %v, model %v", v, got, s)
	}
}

// checkLaws melds a, b and c every way the four laws relate.
func (m *model) checkLaws(t *testing.T, a, b, c Version) {
	t.Helper()
	ab := m.meld(t, a, b)
	if ba := m.meld(t, b, a); ab != ba {
		t.Fatalf("Meld(%d, %d) = %d but Meld(%d, %d) = %d", a, b, ab, b, a, ba)
	}
	if l, r := m.meld(t, ab, c), m.meld(t, a, m.meld(t, b, c)); l != r {
		t.Fatalf("(%d ⊙ %d) ⊙ %d = %d but %d ⊙ (%d ⊙ %d) = %d", a, b, c, l, a, b, c, r)
	}
	if got := m.meld(t, a, a); got != a {
		t.Fatalf("Meld(%d, %d) = %d, not idempotent", a, a, got)
	}
	if m.meld(t, a, Epsilon) != a || m.meld(t, Epsilon, a) != a {
		t.Fatalf("ε is not the identity for %d", a)
	}
}
