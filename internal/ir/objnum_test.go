package ir

import "testing"

// TestObjectNumbering checks the object-number contract: numbers are
// dense, strictly increasing in the value ID, and invertible, for every
// kind of object — base, function and field objects, including field
// objects created after Finalize and clamped ones.
func TestObjectNumbering(t *testing.T) {
	p := NewProgram()
	f := p.NewFunction("main", 0)
	s := p.NewObject("s", HeapObj, 3, f)
	g, _ := p.NewGlobal("g", 0)
	q := p.NewPointer("q")
	fo := p.FuncObj(f)
	f.EmitAlloc(f.Entry, q, s)
	f.Exit = f.Entry
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	f1 := p.FieldObj(s, 1)
	clamped := p.FieldObj(s, 7) // clamps onto s.f2
	if !p.Value(clamped).Collapsed {
		t.Fatal("offset past the last field did not clamp")
	}
	if again := p.FieldObj(f1, 1); again != clamped {
		t.Fatalf("s.f1.f1 = %s, want the existing %s", p.NameOf(again), p.NameOf(clamped))
	}
	if p.FieldObj(s, 0) != s {
		t.Fatal("offset 0 is not the base")
	}

	var objs []ID
	for id := ID(1); int(id) < p.NumValues(); id++ {
		if p.IsObject(id) {
			objs = append(objs, id)
		}
	}
	if p.NumObjects() != len(objs) || len(objs) != 5 { // s, g.obj, &main, s.f1, s.f2
		t.Fatalf("NumObjects = %d, %d objects in the value table, want 5", p.NumObjects(), len(objs))
	}
	for i, id := range objs {
		n := p.ObjNum(id)
		if int(n) != i {
			t.Errorf("ObjNum(%s) = %d, want %d (dense, increasing in value ID)", p.NameOf(id), n, i)
		}
		if p.ObjID(n) != id {
			t.Errorf("ObjID(ObjNum(%s)) = %d, want %d", p.NameOf(id), p.ObjID(n), id)
		}
		if p.ObjValue(n) != p.Value(id) {
			t.Errorf("ObjValue(%d) is not the value of %s", n, p.NameOf(id))
		}
	}
	for _, id := range []ID{fo, f1, clamped} {
		if !p.IsObject(id) {
			t.Errorf("%s is not an object", p.NameOf(id))
		}
	}

	for _, ptr := range []ID{q, g} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ObjNum(%s) of a pointer did not panic", p.NameOf(ptr))
				}
			}()
			p.ObjNum(ptr)
		}()
	}
}
