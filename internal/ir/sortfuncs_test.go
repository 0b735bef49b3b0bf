package ir

import "testing"

// TestSortFuncsDuplicateNames pins the CalleesOf ordering contract:
// Function.Name is not unique, so the sort must fall back to the
// entry label or map iteration order leaks into the returned slice.
func TestSortFuncsDuplicateNames(t *testing.T) {
	mk := func(name string, label uint32) *Function {
		return &Function{Name: name, EntryInstr: &Instr{Label: label}}
	}
	fs := []*Function{
		mk("g", 40), mk("f", 30), mk("g", 10), mk("f", 20), mk("f", 20),
	}
	SortFuncs(fs)
	wantNames := []string{"f", "f", "f", "g", "g"}
	wantLabels := []uint32{20, 20, 30, 10, 40}
	for i, f := range fs {
		if f.Name != wantNames[i] || f.EntryInstr.Label != wantLabels[i] {
			t.Fatalf("position %d: got (%s, %d), want (%s, %d)",
				i, f.Name, f.EntryInstr.Label, wantNames[i], wantLabels[i])
		}
	}
}
