package ir

import (
	"fmt"
	"slices"
	"strings"
)

// Program is a whole-program module: the value table, the functions, and
// (after Finalize) the dense instruction labelling. Programs are built
// single-threaded through the New*/Emit* API or the irparse package.
type Program struct {
	values []Value // index = ID; slot 0 reserved

	// objNum[id] is the object number of value id (noObj for pointers
	// and the reserved slot 0); objIDs is its inverse.
	objNum []Obj
	objIDs []ID

	Funcs  []*Function
	byName map[string]*Function

	// Instrs is the label-indexed instruction list, valid after Finalize.
	Instrs []*Instr

	fieldObjs map[fieldKey]ID
	funcObjs  map[*Function]ID

	// globalsFn is the synthetic function holding the ALLOC instructions
	// of global variables; it is not callable and has no entry/exit
	// semantics beyond providing SVFG nodes for the allocations.
	globalsFn *Function

	// freedPtr/freedObj are the distinguished FREED token: a synthetic
	// global pointer whose single pointee marks deallocated storage.
	// free(p) lowers to `store p, __freed__`, writing the token into
	// every pointee of p; "object o has been freed before ℓ" is then
	// exactly "FREED ∈ IN[ℓ](o)". Created lazily on first use.
	freedPtr ID
	freedObj ID

	// File is the name of the source file the program was compiled from,
	// used by diagnostics; empty for synthesised or textual-IR programs.
	File string

	finalized bool
}

type fieldKey struct {
	base ID
	off  int
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{
		values:    make([]Value, 1), // reserve ID 0
		objNum:    []Obj{noObj},
		byName:    make(map[string]*Function),
		fieldObjs: make(map[fieldKey]ID),
		funcObjs:  make(map[*Function]ID),
	}
}

// NumValues returns the size of the value ID space (valid IDs are
// 1..NumValues-1).
func (p *Program) NumValues() int { return len(p.values) }

// Value returns the value-table entry for id.
func (p *Program) Value(id ID) *Value { return &p.values[id] }

// NameOf returns a printable name for id. Out-of-range IDs render as
// placeholders so diagnostics never panic.
func (p *Program) NameOf(id ID) string {
	if id == None {
		return "_"
	}
	if int(id) >= len(p.values) {
		return fmt.Sprintf("<bad:%d>", id)
	}
	return p.values[id].Name
}

// IsObject reports whether id names an address-taken object.
func (p *Program) IsObject(id ID) bool {
	return id != None && p.values[id].Kind == Object
}

// IsPointer reports whether id names a top-level pointer.
func (p *Program) IsPointer(id ID) bool {
	return id != None && p.values[id].Kind == Pointer
}

func (p *Program) addValue(v Value) ID {
	v.ID = ID(len(p.values))
	p.values = append(p.values, v)
	num := noObj
	if v.Kind == Object {
		num = Obj(len(p.objIDs))
		p.objIDs = append(p.objIDs, v.ID)
	}
	p.objNum = append(p.objNum, num)
	return v.ID
}

// NumObjects returns the number of abstract objects created so far;
// valid object numbers are 0..NumObjects-1.
func (p *Program) NumObjects() int { return len(p.objIDs) }

// ObjNum returns the object number of object id. It panics if id is not
// an object.
func (p *Program) ObjNum(id ID) Obj {
	n := p.objNum[id]
	if n == noObj {
		panic(fmt.Sprintf("ir: ObjNum of non-object %s", p.NameOf(id)))
	}
	return n
}

// ObjID returns the value ID of object number n.
func (p *Program) ObjID(n Obj) ID { return p.objIDs[n] }

// ObjValue returns the value-table entry of object number n.
func (p *Program) ObjValue(n Obj) *Value { return &p.values[p.objIDs[n]] }

// NewPointer creates a fresh top-level pointer variable.
func (p *Program) NewPointer(name string) ID {
	return p.addValue(Value{Name: name, Kind: Pointer})
}

// NewObject creates a fresh base abstract object. numFields is the number
// of addressable fields (0 for scalars). owner is the function whose
// frame holds a StackObj; pass nil otherwise.
func (p *Program) NewObject(name string, kind ObjKind, numFields int, owner *Function) ID {
	id := p.addValue(Value{
		Name:      name,
		Kind:      Object,
		ObjKind:   kind,
		NumFields: numFields,
		DefFunc:   owner,
	})
	p.values[id].Base = id
	return id
}

// FieldObj returns the abstract field object base.f_off, creating it on
// first use. Following the paper's [FIELD-ADD] rules, fields of fields
// accumulate offsets from the true base (o.f_i.f_j ⇒ o.f_{i+j}), and an
// offset at or beyond the base's field count collapses to the last field
// (field-index clamping, as SVF does with its field limit). For a scalar
// base (no fields) the base object itself is returned.
func (p *Program) FieldObj(obj ID, off int) ID {
	v := &p.values[obj]
	if v.Kind != Object {
		panic(fmt.Sprintf("ir: FieldObj of non-object %s", v.Name))
	}
	base := v.Base
	off += v.Offset
	bv := &p.values[base]
	if bv.NumFields == 0 {
		return base
	}
	clamped := false
	if off >= bv.NumFields {
		off = bv.NumFields - 1
		clamped = true
	}
	if off <= 0 {
		return base
	}
	key := fieldKey{base: base, off: off}
	if id, ok := p.fieldObjs[key]; ok {
		if clamped {
			p.values[id].Collapsed = true
		}
		return id
	}
	id := p.addValue(Value{
		Name:      fmt.Sprintf("%s.f%d", bv.Name, off),
		Kind:      Object,
		ObjKind:   bv.ObjKind,
		Base:      base,
		Offset:    off,
		DefFunc:   bv.DefFunc,
		Collapsed: clamped,
	})
	p.fieldObjs[key] = id
	return id
}

// FuncObj returns the function object for f (the abstract object denoting
// f's address), creating it on first use and marking f address-taken.
func (p *Program) FuncObj(f *Function) ID {
	if id, ok := p.funcObjs[f]; ok {
		return id
	}
	id := p.addValue(Value{
		Name:    "&" + f.Name,
		Kind:    Object,
		ObjKind: FuncObj,
		Func:    f,
	})
	p.values[id].Base = id
	p.funcObjs[f] = id
	f.AddressTaken = true
	return id
}

// NewFunction creates a function with nparams fresh parameter pointers.
func (p *Program) NewFunction(name string, nparams int) *Function {
	if _, dup := p.byName[name]; dup {
		panic(fmt.Sprintf("ir: duplicate function %q", name))
	}
	f := &Function{Name: name, Parent: p}
	for i := 0; i < nparams; i++ {
		f.Params = append(f.Params, p.NewPointer(fmt.Sprintf("%s.arg%d", name, i)))
	}
	f.setEntryExit()
	p.Funcs = append(p.Funcs, f)
	p.byName[name] = f
	return f
}

// FuncByName returns the function with the given name, or nil.
func (p *Program) FuncByName(name string) *Function { return p.byName[name] }

// NewGlobal declares a global variable with numFields fields. It returns
// the top-level pointer g (the constant &storage, as in LLVM where @g is
// a pointer to the global's storage) and the storage object. The defining
// ALLOC lives in the synthetic __globals__ function.
func (p *Program) NewGlobal(name string, numFields int) (ptr, obj ID) {
	if p.globalsFn == nil {
		p.globalsFn = p.NewFunction("__globals__", 0)
	}
	ptr = p.NewPointer(name)
	obj = p.NewObject(name+".obj", GlobalObj, numFields, nil)
	p.globalsFn.EmitAlloc(p.globalsFn.Entry, ptr, obj)
	return ptr, obj
}

// GlobalsFunc returns the synthetic function holding global ALLOCs, or
// nil if the program has no globals.
func (p *Program) GlobalsFunc() *Function { return p.globalsFn }

// FreedPtr returns the distinguished FREED-token pointer, creating it
// (and its single pointee object) on first use. It must only be called
// while the program is still under construction: the builder lowers
// free(p) to `store p, FreedPtr()`, a strong update writing the token
// into p's singleton pointees. Like any global it is defined by an
// ALLOC in the synthetic __globals__ function.
func (p *Program) FreedPtr() ID {
	if p.freedPtr == None {
		p.freedPtr, p.freedObj = p.NewGlobal("__freed__", 0)
	}
	return p.freedPtr
}

// FreedObj returns the FREED token object — the pointee every freed
// location is made to hold — or None when the program contains no free.
// Checkers test membership of this ID in flow-sensitive IN sets.
func (p *Program) FreedObj() ID { return p.freedObj }

// IsFreeStore reports whether in is the lowered form of free(q): a
// store of the FREED-token pointer through q. Such stores deallocate
// rather than use their pointees, so the use-after-free checker skips
// them and the double-free checker keys on them.
func (p *Program) IsFreeStore(in *Instr) bool {
	return p.freedPtr != None && in.Op == Store && len(in.Uses) == 2 && in.Uses[1] == p.freedPtr
}

// Finalize closes out every function (installing FUNEXIT nodes), assigns
// dense instruction labels, and validates the module. It must be called
// exactly once, after which the instruction set is frozen except for
// MemPhi insertion by the memory-SSA pass (which calls Renumber).
func (p *Program) Finalize() error {
	if p.finalized {
		return fmt.Errorf("ir: Finalize called twice")
	}
	for _, f := range p.Funcs {
		if f.Exit == nil {
			f.Exit = f.Blocks[len(f.Blocks)-1]
		}
		if err := f.finishExit(); err != nil {
			return err
		}
	}
	p.Renumber()
	if err := p.validate(); err != nil {
		return err
	}
	p.finalized = true
	return nil
}

// Renumber reassigns dense instruction labels in deterministic order
// (function creation order, block order, instruction order) and rebuilds
// Instrs. The memory-SSA pass calls this after inserting MemPhi nodes.
func (p *Program) Renumber() {
	n := 1
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
	}
	p.Instrs = slices.Grow(p.Instrs[:0], n)
	// Label 0 is reserved so that "no node" is expressible.
	p.Instrs = append(p.Instrs, nil)
	for _, f := range p.Funcs {
		f.ForEachInstr(func(in *Instr) {
			in.Label = uint32(len(p.Instrs))
			p.Instrs = append(p.Instrs, in)
		})
	}
}

// validate checks partial-SSA and structural invariants.
func (p *Program) validate() error {
	defCount := make(map[ID]int)
	for _, f := range p.Funcs {
		if len(f.Blocks) == 0 {
			return fmt.Errorf("function %s has no blocks", f.Name)
		}
		if f.Entry != f.Blocks[0] {
			return fmt.Errorf("function %s: entry is not the first block", f.Name)
		}
		if f.EntryInstr == nil || f.ExitInstr == nil {
			return fmt.Errorf("function %s: missing entry/exit instruction", f.Name)
		}
		for _, prm := range f.Params {
			defCount[prm]++
		}
		var err error
		f.ForEachInstr(func(in *Instr) {
			if err != nil {
				return
			}
			if e := p.checkInstr(f, in); e != nil {
				err = e
				return
			}
			if in.Def != None && in.Op != FunEntry {
				defCount[in.Def]++
			}
		})
		if err != nil {
			return err
		}
	}
	for id, n := range defCount {
		if n > 1 {
			return fmt.Errorf("partial SSA violation: top-level pointer %s has %d definitions", p.NameOf(id), n)
		}
	}
	return nil
}

func (p *Program) checkInstr(f *Function, in *Instr) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("function %s: %s: "+format, append([]any{f.Name, in.format(p.NameOf)}, args...)...)
	}
	checkPtr := func(id ID, role string) error {
		if id == None || int(id) >= len(p.values) {
			return bad("%s is not a valid value ID (%d)", role, id)
		}
		if p.values[id].Kind != Pointer {
			return bad("%s %s is not a top-level pointer", role, p.NameOf(id))
		}
		return nil
	}
	for _, u := range in.Uses {
		if err := checkPtr(u, "operand"); err != nil {
			return err
		}
	}
	switch in.Op {
	case Alloc:
		if err := checkPtr(in.Def, "def"); err != nil {
			return err
		}
		if !p.IsObject(in.Obj) {
			return bad("alloc of non-object")
		}
	case Copy, Load:
		if err := checkPtr(in.Def, "def"); err != nil {
			return err
		}
		if len(in.Uses) != 1 {
			return bad("wants 1 operand, has %d", len(in.Uses))
		}
	case Phi:
		if err := checkPtr(in.Def, "def"); err != nil {
			return err
		}
		if len(in.Uses) == 0 {
			return bad("phi with no operands")
		}
	case Field:
		if err := checkPtr(in.Def, "def"); err != nil {
			return err
		}
		if len(in.Uses) != 1 {
			return bad("wants 1 operand, has %d", len(in.Uses))
		}
		if in.Off < 0 {
			return bad("negative field offset %d", in.Off)
		}
	case Store:
		if len(in.Uses) != 2 {
			return bad("wants 2 operands, has %d", len(in.Uses))
		}
	case Call:
		if in.Def != None {
			if err := checkPtr(in.Def, "def"); err != nil {
				return err
			}
		}
		if in.Callee == nil && len(in.Uses) == 0 {
			return bad("indirect call without function pointer")
		}
	case FunEntry, FunExit, MemPhi, CallRet:
		// Shapes fixed by construction.
	default:
		return bad("invalid opcode")
	}
	return nil
}

// String renders the whole program in the textual IR syntax understood by
// the irparse package; Parse(prog.String()) reconstructs an equivalent
// program.
func (p *Program) String() string {
	var b strings.Builder
	if p.globalsFn != nil {
		for _, in := range p.globalsFn.Entry.Instrs {
			if in.Op != Alloc || in.Def == p.freedPtr {
				// The FREED token global is implied by `free`
				// instructions; the parser recreates it on demand.
				continue
			}
			obj := p.Value(in.Obj)
			fmt.Fprintf(&b, "global %s %d\n", p.NameOf(in.Def), obj.NumFields)
		}
	}
	for _, f := range p.Funcs {
		if f == p.globalsFn {
			continue
		}
		p.writeFunc(&b, f)
	}
	return b.String()
}

func (p *Program) writeFunc(b *strings.Builder, f *Function) {
	fmt.Fprintf(b, "func %s(", f.Name)
	for i, prm := range f.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(p.NameOf(prm))
	}
	b.WriteString(") {\n")
	for _, blk := range f.Blocks {
		fmt.Fprintf(b, "%s:\n", blk.Name)
		for _, in := range blk.Instrs {
			switch in.Op {
			case FunEntry, FunExit, MemPhi, CallRet:
				continue
			case Alloc:
				obj := p.Value(in.Obj)
				switch obj.ObjKind {
				case FuncObj:
					fmt.Fprintf(b, "  %s = funcaddr %s\n", p.NameOf(in.Def), obj.Func.Name)
				case HeapObj:
					fmt.Fprintf(b, "  %s = alloc.heap %s %d\n", p.NameOf(in.Def), obj.Name, obj.NumFields)
				default:
					fmt.Fprintf(b, "  %s = alloc %s %d\n", p.NameOf(in.Def), obj.Name, obj.NumFields)
				}
			default:
				if p.IsFreeStore(in) {
					fmt.Fprintf(b, "  free %s\n", p.NameOf(in.Uses[0]))
					continue
				}
				fmt.Fprintf(b, "  %s\n", in.format(p.NameOf))
			}
		}
		switch len(blk.Succs) {
		case 0:
			if f.Ret != None {
				fmt.Fprintf(b, "  ret %s\n", p.NameOf(f.Ret))
			} else {
				b.WriteString("  ret\n")
			}
		case 1:
			fmt.Fprintf(b, "  jmp %s\n", blk.Succs[0].Name)
		default:
			b.WriteString("  br ")
			for i, s := range blk.Succs {
				if i > 0 {
					b.WriteString(", ")
				}
				b.WriteString(s.Name)
			}
			b.WriteString("\n")
		}
	}
	b.WriteString("}\n")
}
