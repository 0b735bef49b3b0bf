package ir

import "fmt"

// Block is a basic block: a label, an ordered instruction list, and CFG
// edges. Terminators are implicit — a block falls through to its Succs;
// points-to analysis does not care about branch conditions, so branches
// are nondeterministic.
type Block struct {
	Name   string
	Index  int // position within the function
	Instrs []*Instr
	Succs  []*Block
	Preds  []*Block
	Parent *Function
}

// AddSucc links b → s in the CFG (deduplicated).
func (b *Block) AddSucc(s *Block) {
	for _, t := range b.Succs {
		if t == s {
			return
		}
	}
	b.Succs = append(b.Succs, s)
	s.Preds = append(s.Preds, b)
}

func (b *Block) String() string { return b.Name }

// Function is one procedure: parameters (top-level pointers), basic
// blocks, and the FUNENTRY/FUNEXIT pseudo-instructions. Entry is always
// Blocks[0]; Entry's first instruction is the FunEntry and the exit
// block's last instruction is the FunExit (LLVM's UnifyFunctionExitNodes
// is modelled by construction: the builder maintains a single exit).
type Function struct {
	Name   string
	Params []ID
	Blocks []*Block

	Entry *Block
	Exit  *Block

	EntryInstr *Instr
	ExitInstr  *Instr

	// Ret is the returned top-level pointer, or None.
	Ret ID

	// AddressTaken is set by Finalize when the function's address is taken
	// (a FuncObj exists for it), i.e. it may be an indirect-call target.
	AddressTaken bool

	Parent *Program
}

func (f *Function) String() string { return f.Name }

// NewBlock appends a new basic block to f.
func (f *Function) NewBlock(name string) *Block {
	b := &Block{Name: name, Index: len(f.Blocks), Parent: f}
	f.Blocks = append(f.Blocks, b)
	return b
}

// append adds an instruction to a block, wiring back-references.
func (f *Function) append(b *Block, in *Instr) *Instr {
	in.Block = b
	in.Parent = f
	b.Instrs = append(b.Instrs, in)
	return in
}

// Instruction constructors. They perform no validation beyond shape;
// Program.Finalize validates the whole module.

// EmitAlloc appends p = alloc obj to block b.
func (f *Function) EmitAlloc(b *Block, p, obj ID) *Instr {
	return f.append(b, &Instr{Op: Alloc, Def: p, Obj: obj})
}

// EmitCopy appends p = copy q to block b.
func (f *Function) EmitCopy(b *Block, p, q ID) *Instr {
	return f.append(b, &Instr{Op: Copy, Def: p, Uses: []ID{q}})
}

// EmitPhi appends p = phi(qs...) to block b.
func (f *Function) EmitPhi(b *Block, p ID, qs ...ID) *Instr {
	return f.append(b, &Instr{Op: Phi, Def: p, Uses: qs})
}

// EmitField appends p = field q, off to block b.
func (f *Function) EmitField(b *Block, p, q ID, off int) *Instr {
	return f.append(b, &Instr{Op: Field, Def: p, Uses: []ID{q}, Off: off})
}

// EmitLoad appends p = load q to block b.
func (f *Function) EmitLoad(b *Block, p, q ID) *Instr {
	return f.append(b, &Instr{Op: Load, Def: p, Uses: []ID{q}})
}

// EmitStore appends store p, q (i.e. *p = q) to block b.
func (f *Function) EmitStore(b *Block, p, q ID) *Instr {
	return f.append(b, &Instr{Op: Store, Uses: []ID{p, q}})
}

// EmitCall appends a direct call p = callee(args...). Pass p = None to
// discard the result.
func (f *Function) EmitCall(b *Block, p ID, callee *Function, args ...ID) *Instr {
	return f.append(b, &Instr{Op: Call, Def: p, Callee: callee, Uses: args})
}

// EmitCallIndirect appends an indirect call p = (*fp)(args...).
func (f *Function) EmitCallIndirect(b *Block, p, fp ID, args ...ID) *Instr {
	uses := append([]ID{fp}, args...)
	return f.append(b, &Instr{Op: Call, Def: p, Uses: uses})
}

// setEntryExit installs the FunEntry/FunExit pseudo-instructions. Called
// by Program.NewFunction and by Finalize once Ret is known.
func (f *Function) setEntryExit() {
	if f.Entry == nil {
		f.Entry = f.NewBlock("entry")
	}
	if f.EntryInstr == nil {
		f.EntryInstr = &Instr{Op: FunEntry, Uses: f.Params, Block: f.Entry, Parent: f}
		f.Entry.Instrs = append([]*Instr{f.EntryInstr}, f.Entry.Instrs...)
	}
}

// finishExit creates the single exit block/instruction. Ret may be None.
func (f *Function) finishExit() error {
	if f.ExitInstr != nil {
		return nil
	}
	if f.Exit == nil {
		return fmt.Errorf("function %s: no exit block", f.Name)
	}
	var uses []ID
	if f.Ret != None {
		uses = []ID{f.Ret}
	}
	f.ExitInstr = f.append(f.Exit, &Instr{Op: FunExit, Uses: uses})
	return nil
}

// ForEachInstr visits every instruction of f in block order.
func (f *Function) ForEachInstr(visit func(*Instr)) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			visit(in)
		}
	}
}

// FuncLess orders functions by name, then by entry label. Name is a
// mutable display string with no uniqueness guarantee, and entry labels
// are unique once the program is finalized, so the order is total.
func FuncLess(a, b *Function) bool {
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	return a.EntryInstr.Label < b.EntryInstr.Label
}

// SortFuncs sorts fs by FuncLess, the order in which SFS, VSFS and the
// CFG-free backend report callees. A sort keyed on Name alone would
// leak map iteration order whenever two distinct functions share a name.
func SortFuncs(fs []*Function) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && FuncLess(fs[j], fs[j-1]); j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}
