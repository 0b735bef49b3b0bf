package lang

import (
	"fmt"

	"vsfs/internal/ir"
)

// Compile parses, checks and lowers mini-C source to a finalized IR
// program.
func Compile(src string) (*ir.Program, error) {
	file, err := ParseFile(src)
	if err != nil {
		return nil, err
	}
	if err := Check(file); err != nil {
		return nil, err
	}
	return Lower(file)
}

// Lower translates a checked AST to the partial-SSA IR, clang -O0
// style: every variable gets a stack (or global) object; reads and
// writes go through LOAD/STORE; only pointer-typed values generate
// data-flow instructions.
func Lower(file *File) (*ir.Program, error) {
	lo := &lowerer{
		file:     file,
		prog:     ir.NewProgram(),
		irFuncs:  make(map[*FuncDecl]*ir.Function),
		varAddr:  make(map[*VarDecl]ir.ID),
		paramIdx: make(map[*FuncDecl][]int),
	}
	if err := lo.run(); err != nil {
		return nil, err
	}
	if err := lo.prog.Finalize(); err != nil {
		return nil, fmt.Errorf("lang: lowering produced invalid IR: %w", err)
	}
	// The FunEntry/FunExit pseudo-instructions are synthesised during
	// finalization; give them the declaring function's position so
	// findings anchored at function boundaries (dangling returns, stack
	// escapes) still point at source.
	for fd, f := range lo.irFuncs {
		pos := ir.Pos{Line: fd.Line, Col: fd.Col}
		if f.EntryInstr != nil && !f.EntryInstr.Pos.IsKnown() {
			f.EntryInstr.Pos = pos
		}
		if f.ExitInstr != nil && !f.ExitInstr.Pos.IsKnown() {
			f.ExitInstr.Pos = pos
		}
	}
	return lo.prog, nil
}

type lowerer struct {
	file *File
	prog *ir.Program

	irFuncs map[*FuncDecl]*ir.Function
	varAddr map[*VarDecl]ir.ID

	// paramIdx maps a function to the C-parameter indexes that are
	// pointer-typed — the only ones that become IR parameters. Call
	// sites filter their arguments identically.
	paramIdx map[*FuncDecl][]int

	temps int
}

// at stamps in with the source position of e, so diagnostics built on
// the IR can point at the mini-C source that produced each instruction.
func at(in *ir.Instr, e Expr) *ir.Instr {
	line, col := e.Pos()
	in.Pos = ir.Pos{Line: line, Col: col}
	return in
}

// atLC stamps in with an explicit line/column (declarations and
// statements, which are not Exprs).
func atLC(in *ir.Instr, line, col int) *ir.Instr {
	in.Pos = ir.Pos{Line: line, Col: col}
	return in
}

func (lo *lowerer) temp(prefix string) ir.ID {
	lo.temps++
	return lo.prog.NewPointer(fmt.Sprintf("%s.%d", prefix, lo.temps))
}

// objFields returns the number of field slots for a variable of type t.
func objFields(t *Type) int {
	if t.Kind == StructT {
		return len(t.Struct.Fields)
	}
	return 0
}

// markIfArray flags array storage as collapsed: one abstract object
// summarises every element, so strong updates must never apply.
func (lo *lowerer) markIfArray(obj ir.ID, t *Type) {
	if t.Kind == ArrayT {
		lo.prog.Value(obj).Collapsed = true
	}
}

// pointeeFields returns the field count of the object a T* allocation
// creates.
func pointeeFields(t *Type) int {
	if t.IsPointer() {
		return objFields(t.Elem)
	}
	return 0
}

func (lo *lowerer) run() error {
	// Globals: storage object + address pointer.
	for _, g := range lo.file.Globals {
		ptr, obj := lo.prog.NewGlobal(g.Name, objFields(g.Type))
		lo.markIfArray(obj, g.Type)
		lo.varAddr[g] = ptr
	}

	// Function shells first so calls resolve forward references.
	for _, fd := range lo.file.Funcs {
		var idx []int
		for i, prm := range fd.Params {
			if prm.Type.IsPointer() {
				idx = append(idx, i)
			}
		}
		lo.paramIdx[fd] = idx
		f := lo.prog.NewFunction(fd.Name, len(idx))
		lo.irFuncs[fd] = f
	}

	// Global initializers run in __cinit__, called at the top of main.
	var cinit *ir.Function
	haveInits := false
	for _, g := range lo.file.Globals {
		if g.Init != nil {
			haveInits = true
		}
	}
	if haveInits {
		cinit = lo.prog.NewFunction("__cinit__", 0)
		fl := &funcLowerer{lo: lo, f: cinit, cur: cinit.Entry}
		for _, g := range lo.file.Globals {
			if g.Init == nil {
				continue
			}
			if err := fl.assignTo(lo.varAddr[g], g.Type, g.Init, g.Line, g.Col); err != nil {
				return err
			}
		}
		cinit.Exit = fl.cur
	}

	for _, fd := range lo.file.Funcs {
		if err := lo.lowerFunc(fd, cinit); err != nil {
			return err
		}
	}
	return nil
}

func (lo *lowerer) lowerFunc(fd *FuncDecl, cinit *ir.Function) error {
	f := lo.irFuncs[fd]
	fl := &funcLowerer{lo: lo, f: f, cur: f.Entry}

	if fd.Name == "main" && cinit != nil {
		atLC(f.EmitCall(f.Entry, ir.None, cinit), fd.Line, fd.Col)
	}

	// Allocate storage for parameters and spill incoming values.
	for i, prm := range fd.Params {
		obj := lo.prog.NewObject(fd.Name+"."+prm.Name, ir.StackObj, objFields(prm.Type), f)
		addr := lo.temp(prm.Name + ".addr")
		atLC(f.EmitAlloc(f.Entry, addr, obj), prm.Line, prm.Col)
		lo.varAddr[prm] = addr
		if prm.Type.IsPointer() {
			irIdx := indexOf(lo.paramIdx[fd], i)
			atLC(f.EmitStore(f.Entry, addr, f.Params[irIdx]), prm.Line, prm.Col)
		}
	}

	// Hoist every local declaration's storage to the entry block
	// (clang -O0 allocas).
	collectDecls(fd.Body, func(d *VarDecl) {
		obj := lo.prog.NewObject(fd.Name+"."+d.Name, ir.StackObj, objFields(d.Type), f)
		lo.markIfArray(obj, d.Type)
		addr := lo.temp(d.Name + ".addr")
		atLC(f.EmitAlloc(f.Entry, addr, obj), d.Line, d.Col)
		lo.varAddr[d] = addr
	})

	if err := fl.block(fd.Body); err != nil {
		return err
	}
	fl.finish(fd)
	return nil
}

func indexOf(xs []int, x int) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	panic("lang: parameter index lost")
}

func collectDecls(b *BlockStmt, visit func(*VarDecl)) {
	for _, st := range b.Stmts {
		switch s := st.(type) {
		case *DeclStmt:
			visit(s.Decl)
		case *BlockStmt:
			collectDecls(s, visit)
		case *IfStmt:
			collectDecls(s.Then, visit)
			if s.Else != nil {
				collectDecls(s.Else, visit)
			}
		case *WhileStmt:
			collectDecls(s.Body, visit)
		case *ForStmt:
			collectDecls(s.Body, visit)
		case *DoWhileStmt:
			collectDecls(s.Body, visit)
		}
	}
}

// funcLowerer lowers one function body.
type funcLowerer struct {
	lo  *lowerer
	f   *ir.Function
	cur *ir.Block

	rets []retSite

	// loops is the enclosing-loop stack: break jumps to after,
	// continue to next (the post block of a for, else the header).
	loops []loopCtx

	blocks int
}

type loopCtx struct {
	next  *ir.Block
	after *ir.Block
}

type retSite struct {
	block *ir.Block
	val   ir.ID
}

func (fl *funcLowerer) newBlock(prefix string) *ir.Block {
	fl.blocks++
	return fl.f.NewBlock(fmt.Sprintf("%s%d", prefix, fl.blocks))
}

// finish unifies the return sites into a single exit block.
func (fl *funcLowerer) finish(fd *FuncDecl) {
	f := fl.f
	// Falling off the end is an implicit return.
	fl.rets = append(fl.rets, retSite{block: fl.cur, val: ir.None})

	if len(fl.rets) == 1 {
		f.Exit = fl.rets[0].block
		f.Ret = fl.rets[0].val
		return
	}
	exit := fl.newBlock("exit")
	var vals []ir.ID
	for _, r := range fl.rets {
		r.block.AddSucc(exit)
		if r.val != ir.None {
			vals = append(vals, r.val)
		}
	}
	f.Exit = exit
	switch len(vals) {
	case 0:
		f.Ret = ir.None
	case 1:
		f.Ret = vals[0]
	default:
		ret := fl.lo.temp(fd.Name + ".ret")
		atLC(f.EmitPhi(exit, ret, vals...), fd.Line, fd.Col)
		f.Ret = ret
	}
}

func (fl *funcLowerer) block(b *BlockStmt) error {
	for _, st := range b.Stmts {
		if err := fl.stmt(st); err != nil {
			return err
		}
	}
	return nil
}

func (fl *funcLowerer) stmt(st Stmt) error {
	switch s := st.(type) {
	case *BlockStmt:
		return fl.block(s)

	case *DeclStmt:
		if s.Decl.Init != nil {
			return fl.assignTo(fl.lo.varAddr[s.Decl], s.Decl.Type, s.Decl.Init, s.Decl.Line, s.Decl.Col)
		}
		return nil

	case *ExprStmt:
		_, err := fl.value(s.X)
		return err

	case *AssignStmt:
		addr, err := fl.addr(s.LHS)
		if err != nil {
			return err
		}
		if !s.LHS.TypeOf().IsPointer() {
			// An integer write through memory (*p = n, q->f = n, a[i] = n)
			// produces no tracked store, but the access itself must exist
			// in the IR so memory-safety checkers see it: emit a "touch"
			// load of the location. Its fresh def is never used, so it
			// cannot perturb any points-to result. Plain variable writes
			// (x = n) are direct frame accesses and get no touch load.
			if _, plain := s.LHS.(*Ident); !plain {
				tmp := fl.lo.temp("w")
				at(fl.f.EmitLoad(fl.cur, tmp, addr), s.LHS)
			}
		}
		return fl.assignTo(addr, s.LHS.TypeOf(), s.RHS, s.Line, s.Col)

	case *IfStmt:
		if _, err := fl.value(s.Cond); err != nil {
			return err
		}
		then := fl.newBlock("then")
		join := fl.newBlock("join")
		fl.cur.AddSucc(then)
		var els *ir.Block
		if s.Else != nil {
			els = fl.newBlock("else")
			fl.cur.AddSucc(els)
		} else {
			fl.cur.AddSucc(join)
		}
		fl.cur = then
		if err := fl.block(s.Then); err != nil {
			return err
		}
		fl.cur.AddSucc(join)
		if s.Else != nil {
			fl.cur = els
			if err := fl.block(s.Else); err != nil {
				return err
			}
			fl.cur.AddSucc(join)
		}
		fl.cur = join
		return nil

	case *WhileStmt:
		header := fl.newBlock("head")
		body := fl.newBlock("body")
		after := fl.newBlock("after")
		fl.cur.AddSucc(header)
		fl.cur = header
		if _, err := fl.value(s.Cond); err != nil {
			return err
		}
		fl.cur.AddSucc(body)
		fl.cur.AddSucc(after)
		fl.cur = body
		fl.loops = append(fl.loops, loopCtx{next: header, after: after})
		err := fl.block(s.Body)
		fl.loops = fl.loops[:len(fl.loops)-1]
		if err != nil {
			return err
		}
		fl.cur.AddSucc(header)
		fl.cur = after
		return nil

	case *ForStmt:
		if s.Init != nil {
			if err := fl.stmt(s.Init); err != nil {
				return err
			}
		}
		header := fl.newBlock("fhead")
		body := fl.newBlock("fbody")
		post := fl.newBlock("fpost")
		after := fl.newBlock("fafter")
		fl.cur.AddSucc(header)
		fl.cur = header
		if s.Cond != nil {
			if _, err := fl.value(s.Cond); err != nil {
				return err
			}
		}
		fl.cur.AddSucc(body)
		fl.cur.AddSucc(after)
		fl.cur = body
		fl.loops = append(fl.loops, loopCtx{next: post, after: after})
		err := fl.block(s.Body)
		fl.loops = fl.loops[:len(fl.loops)-1]
		if err != nil {
			return err
		}
		fl.cur.AddSucc(post)
		fl.cur = post
		if s.Post != nil {
			if err := fl.stmt(s.Post); err != nil {
				return err
			}
		}
		fl.cur.AddSucc(header)
		fl.cur = after
		return nil

	case *DoWhileStmt:
		body := fl.newBlock("dbody")
		check := fl.newBlock("dcheck")
		after := fl.newBlock("dafter")
		fl.cur.AddSucc(body)
		fl.cur = body
		fl.loops = append(fl.loops, loopCtx{next: check, after: after})
		err := fl.block(s.Body)
		fl.loops = fl.loops[:len(fl.loops)-1]
		if err != nil {
			return err
		}
		fl.cur.AddSucc(check)
		fl.cur = check
		if _, err := fl.value(s.Cond); err != nil {
			return err
		}
		fl.cur.AddSucc(body)
		fl.cur.AddSucc(after)
		fl.cur = after
		return nil

	case *BreakStmt:
		ctx := fl.loops[len(fl.loops)-1]
		fl.cur.AddSucc(ctx.after)
		fl.cur = fl.newBlock("dead")
		return nil

	case *ContinueStmt:
		ctx := fl.loops[len(fl.loops)-1]
		fl.cur.AddSucc(ctx.next)
		fl.cur = fl.newBlock("dead")
		return nil

	case *ReturnStmt:
		var val ir.ID
		if s.X != nil {
			v, err := fl.value(s.X)
			if err != nil {
				return err
			}
			if s.X.TypeOf() == nil || s.X.TypeOf().IsPointer() {
				val = v
			}
		}
		fl.rets = append(fl.rets, retSite{block: fl.cur, val: val})
		// Statements after a return are unreachable; give them a
		// dangling block so lowering stays simple.
		fl.cur = fl.newBlock("dead")
		return nil
	}
	return fmt.Errorf("unhandled statement %T", st)
}

// assignTo stores the value of rhs into the location addr of type lt,
// stamping the store with the assignment's source position. Integer
// assignments lower only the side effects of rhs.
func (fl *funcLowerer) assignTo(addr ir.ID, lt *Type, rhs Expr, line, col int) error {
	val, err := fl.value(rhs)
	if err != nil {
		return err
	}
	if !lt.IsPointer() {
		return nil // int (or struct-field int) assignment: untracked
	}
	if val == ir.None {
		// null (or an untracked value): store a fresh undefined temp,
		// whose empty points-to set models the null pointer — a strong
		// update with it clears a singleton location.
		val = fl.lo.temp("null")
	}
	atLC(fl.f.EmitStore(fl.cur, addr, val), line, col)
	return nil
}

// addr lowers an lvalue to a temp holding its address.
func (fl *funcLowerer) addr(e Expr) (ir.ID, error) {
	switch x := e.(type) {
	case *Ident:
		if x.Var == nil {
			return ir.None, errAt(x.Line, "cannot take address of function %q here", x.Name)
		}
		return fl.lo.varAddr[x.Var], nil

	case *Unary:
		if x.Op != "*" {
			return ir.None, errAt(x.Line, "not an lvalue")
		}
		return fl.value(x.X) // address = the pointer's value

	case *FieldAccess:
		var base ir.ID
		var err error
		if x.Arrow {
			base, err = fl.value(x.X) // pointer value
		} else {
			base, err = fl.addr(x.X) // struct variable's address
		}
		if err != nil {
			return ir.None, err
		}
		t := fl.lo.temp("fld")
		at(fl.f.EmitField(fl.cur, t, base, x.Index), x)
		return t, nil

	case *IndexExpr:
		if _, err := fl.value(x.Idx); err != nil { // side effects only
			return ir.None, err
		}
		if x.X.TypeOf() != nil && x.X.TypeOf().Kind == ArrayT {
			// The whole array is one summary object: &a[i] is &a.
			return fl.addr(x.X)
		}
		// Pointer indexing: p[i] reads/writes through p's pointees.
		return fl.value(x.X)
	}
	return ir.None, fmt.Errorf("expression is not an lvalue")
}

// value lowers an expression to a temp holding its value. Non-pointer
// expressions lower their side effects and return ir.None.
func (fl *funcLowerer) value(e Expr) (ir.ID, error) {
	switch x := e.(type) {
	case *NumberLit, *NullLit:
		return ir.None, nil

	case *MallocExpr:
		t := x.TypeOf()
		obj := fl.lo.prog.NewObject(fmt.Sprintf("heap.%d", fl.lo.temps), ir.HeapObj, pointeeFields(t), nil)
		tmp := fl.lo.temp("m")
		at(fl.f.EmitAlloc(fl.cur, tmp, obj), x)
		return tmp, nil

	case *FreeExpr:
		v, err := fl.value(x.X)
		if err != nil {
			return ir.None, err
		}
		if v == ir.None {
			return ir.None, nil // free(null): a no-op
		}
		// free(p) deallocates p's pointees: store the FREED token
		// through p. On singleton pointees the strong update replaces
		// the old contents, making the model flow-sensitively precise.
		at(fl.f.EmitStore(fl.cur, v, fl.lo.prog.FreedPtr()), x)
		return ir.None, nil

	case *Ident:
		if x.Fun != nil {
			tmp := fl.lo.temp("fn")
			at(fl.f.EmitAlloc(fl.cur, tmp, fl.lo.prog.FuncObj(fl.lo.irFuncs[x.Fun])), x)
			return tmp, nil
		}
		if !x.TypeOf().IsPointer() {
			return ir.None, nil
		}
		tmp := fl.lo.temp(x.Name)
		at(fl.f.EmitLoad(fl.cur, tmp, fl.lo.varAddr[x.Var]), x)
		return tmp, nil

	case *Unary:
		switch x.Op {
		case "&":
			if id, ok := x.X.(*Ident); ok && id.Fun != nil {
				tmp := fl.lo.temp("fn")
				at(fl.f.EmitAlloc(fl.cur, tmp, fl.lo.prog.FuncObj(fl.lo.irFuncs[id.Fun])), x)
				return tmp, nil
			}
			return fl.addr(x.X)
		case "*":
			a, err := fl.value(x.X)
			if err != nil {
				return ir.None, err
			}
			tmp := fl.lo.temp("d")
			at(fl.f.EmitLoad(fl.cur, tmp, a), x)
			if !x.TypeOf().IsPointer() {
				return ir.None, nil // *intptr as an int value; load kept for checkers
			}
			return tmp, nil
		default: // !, -
			_, err := fl.value(x.X)
			return ir.None, err
		}

	case *Binary:
		if _, err := fl.value(x.X); err != nil {
			return ir.None, err
		}
		if _, err := fl.value(x.Y); err != nil {
			return ir.None, err
		}
		return ir.None, nil

	case *FieldAccess:
		a, err := fl.addr(x)
		if err != nil {
			return ir.None, err
		}
		tmp := fl.lo.temp(x.Name)
		at(fl.f.EmitLoad(fl.cur, tmp, a), x)
		if !x.TypeOf().IsPointer() {
			return ir.None, nil // int field; load kept for checkers
		}
		return tmp, nil

	case *IndexExpr:
		a, err := fl.addr(x)
		if err != nil {
			return ir.None, err
		}
		tmp := fl.lo.temp("elt")
		at(fl.f.EmitLoad(fl.cur, tmp, a), x)
		if !x.TypeOf().IsPointer() {
			return ir.None, nil // int element; load kept for checkers
		}
		return tmp, nil

	case *CallExpr:
		return fl.call(x)
	}
	return ir.None, fmt.Errorf("unhandled expression %T", e)
}

func (fl *funcLowerer) call(x *CallExpr) (ir.ID, error) {
	// Arguments: pointer-typed ones only, in signature order.
	sig := x.Fun.TypeOf().Elem.Sig
	var args []ir.ID
	for i, a := range x.Args {
		v, err := fl.value(a)
		if err != nil {
			return ir.None, err
		}
		if !sig.Params[i].IsPointer() {
			continue
		}
		if v == ir.None {
			v = fl.lo.temp("null")
		}
		args = append(args, v)
	}

	var def ir.ID
	if sig.Ret.IsPointer() {
		def = fl.lo.temp("r")
	}

	if id, ok := x.Fun.(*Ident); ok && id.Fun != nil {
		at(fl.f.EmitCall(fl.cur, def, fl.lo.irFuncs[id.Fun], args...), x)
		return def, nil
	}
	fp, err := fl.value(x.Fun)
	if err != nil {
		return ir.None, err
	}
	if fp == ir.None {
		return ir.None, errAt(x.Line, "indirect call through untracked value")
	}
	at(fl.f.EmitCallIndirect(fl.cur, def, fp, args...), x)
	return def, nil
}
