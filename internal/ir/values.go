// Package ir defines the LLVM-like partial-SSA intermediate representation
// the analyses operate on: the 10 instruction kinds of the paper's Table I
// (ALLOC, PHI, MEMPHI, CAST/COPY, FIELD, LOAD, STORE, CALL, FUNENTRY,
// FUNEXIT), a value table that splits the variable universe into top-level
// pointers (P = S ∪ G) and address-taken objects (A = O ∪ F), and a
// program container with validation.
//
// Top-level pointers are explicit and in SSA form: each has exactly one
// defining instruction. Address-taken objects are implicit; they are read
// and written only through LOAD and STORE and are *not* in SSA form until
// the memory-SSA pass runs.
package ir

import "fmt"

// ID identifies a value (top-level pointer or address-taken object) within
// a Program. IDs are dense and shared across both classes, so per-value
// tables and worklists can be indexed by them; sets of objects use the
// denser Obj numbering instead. ID 0 is reserved and never a valid value.
type ID = uint32

// None is the absent value ID.
const None ID = 0

// Obj is an object number: a dense index over the address-taken objects
// alone, 0..Program.NumObjects()-1. Numbers are assigned as objects are
// created, so they increase with the value ID. Every set of objects —
// points-to sets, χ/μ, object contents — holds object numbers, which
// pack several times more members into each bit-vector word than the
// shared value-ID space would. Translate with Program.ObjNum and
// Program.ObjID where the IR itself is consulted.
type Obj uint32

// noObj marks a value that is not an object in Program.objNum.
const noObj = ^Obj(0)

// ValueKind discriminates the two halves of the variable universe.
type ValueKind uint8

const (
	// Pointer is a top-level pointer variable (stack or global): the set P.
	Pointer ValueKind = iota
	// Object is an address-taken abstract object or field thereof: the set A.
	Object
)

func (k ValueKind) String() string {
	switch k {
	case Pointer:
		return "pointer"
	case Object:
		return "object"
	default:
		return fmt.Sprintf("ValueKind(%d)", uint8(k))
	}
}

// ObjKind classifies an abstract object by its allocation site.
type ObjKind uint8

const (
	// StackObj is an object allocated by a stack ALLOC (C local whose
	// address is taken).
	StackObj ObjKind = iota
	// GlobalObj is a global variable's storage.
	GlobalObj
	// HeapObj is a heap allocation site (malloc et al.). Heap objects are
	// summaries: one abstract object may stand for many runtime objects,
	// so they are never singletons.
	HeapObj
	// FuncObj is the address of a function; loading it and calling through
	// it drives indirect-call resolution.
	FuncObj
)

func (k ObjKind) String() string {
	switch k {
	case StackObj:
		return "stack"
	case GlobalObj:
		return "global"
	case HeapObj:
		return "heap"
	case FuncObj:
		return "func"
	default:
		return fmt.Sprintf("ObjKind(%d)", uint8(k))
	}
}

// Value is one entry in a Program's value table.
type Value struct {
	ID   ID
	Name string
	Kind ValueKind

	// Object-only fields. For a field object, Base is the owning base
	// object and Offset its field index; for a base object Base == ID and
	// Offset == 0.
	ObjKind   ObjKind
	Base      ID
	Offset    int
	NumFields int // fields of the base object (0 for scalars)

	// Func is set for FuncObj objects: the function whose address this
	// object represents.
	Func *Function

	// DefFunc is the function a StackObj belongs to, used to demote
	// singletons in recursive functions.
	DefFunc *Function

	// Collapsed marks a field object that stands for more than one
	// concrete location because out-of-range offsets were clamped onto
	// it; such objects are never singletons (no strong updates).
	Collapsed bool
}

// IsField reports whether v is a field object (not a base object).
func (v *Value) IsField() bool { return v.Kind == Object && v.Base != v.ID }

func (v *Value) String() string {
	if v == nil {
		return "<nil>"
	}
	return v.Name
}
