package obs

import (
	"context"
	"fmt"
	"testing"
)

func TestObjectAttrNilSafe(t *testing.T) {
	var a *ObjectAttr
	// The disabled path must be a no-op, never a panic.
	a.Pop(3)
	a.Prop(7)
	a.Set(0)
	a.Meld(12)
	if a.TotalPops() != 0 || a.TotalProps() != 0 || a.TotalSets() != 0 || a.TotalMelds() != 0 {
		t.Fatal("nil ObjectAttr reported nonzero totals")
	}
	if got := a.TopK(5, nil); got != nil {
		t.Fatalf("nil ObjectAttr TopK = %v, want nil", got)
	}
}

func TestObjectAttrTotalsConserved(t *testing.T) {
	a := NewObjectAttr(4)
	for i := 0; i < 5; i++ {
		a.Pop(1)
	}
	a.Pop(0)
	a.Prop(2)
	a.Prop(2)
	a.Set(1)
	a.Meld(3)
	if got := a.TotalPops(); got != 6 {
		t.Errorf("TotalPops = %d, want 6", got)
	}
	if got := a.TotalProps(); got != 2 {
		t.Errorf("TotalProps = %d, want 2", got)
	}
	if got := a.TotalSets(); got != 1 {
		t.Errorf("TotalSets = %d, want 1", got)
	}
	if got := a.TotalMelds(); got != 1 {
		t.Errorf("TotalMelds = %d, want 1", got)
	}
}

func TestObjectAttrGrowth(t *testing.T) {
	a := NewObjectAttr(1)
	// Field objects materialise mid-solve with IDs past the hint.
	a.Pop(100)
	a.Prop(250)
	a.Meld(999)
	if a.TotalPops() != 1 || a.TotalProps() != 1 || a.TotalMelds() != 1 {
		t.Fatal("charges past the hint were lost")
	}
}

func TestTopKRankingAndNames(t *testing.T) {
	a := NewObjectAttr(8)
	name := func(o uint32) string {
		if o == 0 {
			t.Fatal("nameOf called for object 0")
		}
		return fmt.Sprintf("obj%d", o)
	}

	// Object 3: cost 10 (props). Object 5: cost 4 (pops+melds).
	// Object 1: cost 4 too — tie broken by ascending ID.
	// Object 0: unattributed, cost 1. Object 6: only sets (cost 0, but
	// charged — must still appear, ranked last).
	for i := 0; i < 10; i++ {
		a.Prop(3)
	}
	a.Pop(5)
	a.Pop(5)
	a.Meld(5)
	a.Meld(5)
	for i := 0; i < 4; i++ {
		a.Prop(1)
	}
	a.Prop(0)
	a.Set(6)

	rows := a.TopK(10, name)
	if len(rows) != 5 {
		t.Fatalf("TopK returned %d rows, want 5: %+v", len(rows), rows)
	}
	wantOrder := []uint32{3, 1, 5, 0, 6}
	for i, want := range wantOrder {
		if rows[i].ID != want {
			t.Fatalf("row %d has ID %d, want %d (rows %+v)", i, rows[i].ID, want, rows)
		}
	}
	if rows[0].Object != "obj3" {
		t.Errorf("row 0 named %q, want obj3", rows[0].Object)
	}
	for _, r := range rows {
		if r.ID == 0 && r.Object != "(unattributed)" {
			t.Errorf("object 0 named %q, want (unattributed)", r.Object)
		}
	}

	// k truncates after ranking.
	if got := a.TopK(2, name); len(got) != 2 || got[0].ID != 3 || got[1].ID != 1 {
		t.Fatalf("TopK(2) = %+v, want objects 3 then 1", got)
	}
}

func TestTopKSkipsUncharged(t *testing.T) {
	a := NewObjectAttr(100)
	a.Prop(42)
	rows := a.TopK(10, func(o uint32) string { return "x" })
	if len(rows) != 1 || rows[0].ID != 42 {
		t.Fatalf("TopK = %+v, want exactly object 42", rows)
	}
}

func TestCollectorContextRoundTrip(t *testing.T) {
	if AttrFrom(context.Background()) != nil {
		t.Fatal("AttrFrom on empty context is non-nil")
	}
	a := NewObjectAttr(1)
	ctx := WithCollector(context.Background(), a)
	if got := AttrFrom(ctx); got != a {
		t.Fatalf("AttrFrom = %p, want %p", got, a)
	}
}

// TestTopKTieOrderingDeterministic: objects with equal cost must rank by
// ascending ID, so a tie-heavy table renders identically run after run —
// the determinism the report byte-identity contract depends on.
func TestTopKTieOrderingDeterministic(t *testing.T) {
	a := NewObjectAttr(64)
	// Ten objects, every one charged exactly 3 cost units (2 pops + 1
	// prop), IDs deliberately out of charge order.
	ids := []uint32{9, 3, 14, 1, 30, 7, 22, 5, 11, 2}
	for _, o := range ids {
		a.Pop(o)
		a.Pop(o)
		a.Prop(o)
	}
	nameOf := func(o uint32) string { return fmt.Sprintf("o%d", o) }
	top := a.TopK(len(ids), nameOf)
	if len(top) != len(ids) {
		t.Fatalf("TopK returned %d rows, want %d", len(top), len(ids))
	}
	for i := 1; i < len(top); i++ {
		if top[i-1].cost() != top[i].cost() {
			t.Fatalf("rows %d/%d have unequal cost in a pure tie table", i-1, i)
		}
		if top[i-1].ID >= top[i].ID {
			t.Fatalf("tie not broken by ascending ID: row %d ID %d, row %d ID %d",
				i-1, top[i-1].ID, i, top[i].ID)
		}
	}
	// Truncation keeps the lowest-ID ties.
	top3 := a.TopK(3, nameOf)
	if len(top3) != 3 || top3[0].ID != 1 || top3[1].ID != 2 || top3[2].ID != 3 {
		t.Fatalf("truncated tie table = %v, want IDs 1,2,3", top3)
	}
}
