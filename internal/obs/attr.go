package obs

import (
	"context"
	"sort"
)

// Collector receives per-object solver cost events. The solvers charge
// every worklist pop, set union, stored set, and meld operation to the
// abstract object that owns the work (or to object 0, the
// "unattributed" bucket, when no single object does), so per-object
// totals are conserved: they sum exactly to the solver-wide gauges the
// stats structs already report. *ObjectAttr is the one implementation;
// the interface exists so the facade and server can consume attribution
// without depending on the concrete counter layout.
type Collector interface {
	Pop(o uint32)
	Prop(o uint32)
	Set(o uint32)
	Meld(o uint32)
}

// ObjectAttr is a zero-allocation Collector: four flat uint64 slices
// indexed by object ID, grown geometrically as field objects
// materialise mid-solve. It is NOT safe for concurrent use — each solve
// owns its own ObjectAttr, exactly like the solver state it shadows.
//
// Every method is nil-receiver safe, so solver code holds a concrete
// *ObjectAttr (nil when attribution is off) and the disabled path costs
// one predictable branch per event rather than an interface dispatch —
// that is what keeps the disabled-path overhead within the ≤5% budget.
type ObjectAttr struct {
	pops  []uint64
	props []uint64
	sets  []uint64
	melds []uint64
}

// NewObjectAttr returns a collector pre-sized for object IDs < hint.
func NewObjectAttr(hint int) *ObjectAttr {
	if hint < 1 {
		hint = 1
	}
	return &ObjectAttr{
		pops:  make([]uint64, hint),
		props: make([]uint64, hint),
		sets:  make([]uint64, hint),
		melds: make([]uint64, hint),
	}
}

func grow(s []uint64, o uint32) []uint64 {
	n := len(s) * 2
	if n <= int(o) {
		n = int(o) + 1
	}
	out := make([]uint64, n)
	copy(out, s)
	return out
}

// Pop charges one worklist pop to object o (0 = unattributed).
func (a *ObjectAttr) Pop(o uint32) {
	if a == nil {
		return
	}
	if int(o) >= len(a.pops) {
		a.pops = grow(a.pops, o)
	}
	a.pops[o]++
}

// Prop charges one attempted set union to object o.
func (a *ObjectAttr) Prop(o uint32) {
	if a == nil {
		return
	}
	if int(o) >= len(a.props) {
		a.props = grow(a.props, o)
	}
	a.props[o]++
}

// Set charges one stored points-to set to object o: an (object,
// version) set for VSFS, an IN or OUT slot set for SFS, a non-empty node
// set for the CFG-free backend.
func (a *ObjectAttr) Set(o uint32) {
	if a == nil {
		return
	}
	if int(o) >= len(a.sets) {
		a.sets = grow(a.sets, o)
	}
	a.sets[o]++
}

// Meld charges one meld-labelling operation to object o (VSFS only).
func (a *ObjectAttr) Meld(o uint32) {
	if a == nil {
		return
	}
	if int(o) >= len(a.melds) {
		a.melds = grow(a.melds, o)
	}
	a.melds[o]++
}

func total(a *ObjectAttr, pick func(*ObjectAttr) []uint64) uint64 {
	if a == nil {
		return 0
	}
	var t uint64
	for _, v := range pick(a) {
		t += v
	}
	return t
}

// TotalPops returns the sum of all charged pops — by the conservation
// rule, exactly the solver's NodesProcessed. Nil-safe, like every
// ObjectAttr method.
func (a *ObjectAttr) TotalPops() uint64 {
	return total(a, func(a *ObjectAttr) []uint64 { return a.pops })
}

// TotalProps returns the sum of all charged unions — exactly the
// solver's Propagations.
func (a *ObjectAttr) TotalProps() uint64 {
	return total(a, func(a *ObjectAttr) []uint64 { return a.props })
}

// TotalSets returns the sum of all charged stored sets — exactly the
// solver's PtsSets.
func (a *ObjectAttr) TotalSets() uint64 {
	return total(a, func(a *ObjectAttr) []uint64 { return a.sets })
}

// TotalMelds returns the sum of all charged meld operations — exactly
// the versioning pass's MeldOps.
func (a *ObjectAttr) TotalMelds() uint64 {
	return total(a, func(a *ObjectAttr) []uint64 { return a.melds })
}

// HotObject is one row of the top-K cost table: everything the solve
// charged to a single abstract object. The zero ID row aggregates
// unattributed work (top-level propagation, copy/phi/alloc unions).
type HotObject struct {
	Object       string `json:"object"`
	ID           uint32 `json:"id"`
	Pops         uint64 `json:"pops"`
	Propagations uint64 `json:"propagations"`
	Sets         uint64 `json:"sets,omitempty"`
	Melds        uint64 `json:"melds,omitempty"`
}

// cost is the ranking key of the hot-objects table.
func (h HotObject) cost() uint64 { return h.Propagations + h.Pops + h.Melds }

// TopK returns the k costliest objects, ranked by propagations + pops +
// melds with ties broken by ascending ID (deterministic), skipping
// objects that were never charged. nameOf renders object IDs; it is
// never called for ID 0, which is reported as "(unattributed)".
func (a *ObjectAttr) TopK(k int, nameOf func(o uint32) string) []HotObject {
	if a == nil || k <= 0 {
		return nil
	}
	n := len(a.pops)
	for _, s := range [][]uint64{a.props, a.sets, a.melds} {
		if len(s) > n {
			n = len(s)
		}
	}
	at := func(s []uint64, i int) uint64 {
		if i < len(s) {
			return s[i]
		}
		return 0
	}
	rows := make([]HotObject, 0, 16)
	for i := 0; i < n; i++ {
		h := HotObject{
			ID:           uint32(i),
			Pops:         at(a.pops, i),
			Propagations: at(a.props, i),
			Sets:         at(a.sets, i),
			Melds:        at(a.melds, i),
		}
		if h.Pops == 0 && h.Propagations == 0 && h.Sets == 0 && h.Melds == 0 {
			continue
		}
		if i == 0 {
			h.Object = "(unattributed)"
		} else {
			h.Object = nameOf(uint32(i))
		}
		rows = append(rows, h)
	}
	sort.Slice(rows, func(i, j int) bool {
		if ci, cj := rows[i].cost(), rows[j].cost(); ci != cj {
			return ci > cj
		}
		return rows[i].ID < rows[j].ID
	})
	if len(rows) > k {
		rows = rows[:k]
	}
	return rows
}

// attrKey keys a *ObjectAttr in a context.
type attrKey struct{}

// WithCollector returns ctx carrying the collector, so the solver
// packages can pick it up without signature changes — the same pattern
// the tracer uses.
func WithCollector(ctx context.Context, c Collector) context.Context {
	return context.WithValue(ctx, attrKey{}, c)
}

// AttrFrom extracts the context's collector as its concrete type, or
// nil when attribution is off (or a foreign Collector implementation
// was attached — solvers only know how to drive the zero-alloc one).
func AttrFrom(ctx context.Context) *ObjectAttr {
	a, _ := ctx.Value(attrKey{}).(*ObjectAttr)
	return a
}
