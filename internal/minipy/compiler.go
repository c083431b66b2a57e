package minipy

import (
	"fmt"
)

// CompileError reports a semantic error found during compilation.
type CompileError struct {
	Line int
	Col  int
	Msg  string
}

func (e *CompileError) Error() string {
	return fmt.Sprintf("minipy: compile error at line %d: %s", e.Line, e.Msg)
}

// CompileSource parses and compiles MiniPy source into a module code object.
func CompileSource(src string) (*Code, error) {
	mod, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Compile(mod)
}

// Compile lowers a parsed module to bytecode.
func Compile(mod *Module) (*Code, error) {
	root := newSymScope(nil, nil)
	if err := collectScope(root, mod.Body); err != nil {
		return nil, err
	}
	if err := resolveScopes(root); err != nil {
		return nil, err
	}
	fc := newFuncCompiler(root, "<module>", nil, true)
	for _, st := range mod.Body {
		if err := fc.stmt(st); err != nil {
			return nil, err
		}
	}
	fc.emit(OpLoadConst, int32(fc.constIdx(None)), 0)
	fc.emit(OpReturn, 0, 0)
	return fc.code, nil
}

// ---- Symbol table construction ----

type symScope struct {
	fn         *FuncDef // nil for the module scope
	parent     *symScope
	children   map[*FuncDef]*symScope
	locals     map[string]bool
	localOrder []string
	globals    map[string]bool // names declared `global`
	nonlocals  map[string]bool // names declared `nonlocal`
	useOrder   []string
	useSet     map[string]bool
	cellvars   map[string]bool
	freeOrder  []string
	freeSet    map[string]bool
}

func newSymScope(fn *FuncDef, parent *symScope) *symScope {
	return &symScope{
		fn:        fn,
		parent:    parent,
		children:  map[*FuncDef]*symScope{},
		locals:    map[string]bool{},
		globals:   map[string]bool{},
		nonlocals: map[string]bool{},
		useSet:    map[string]bool{},
		cellvars:  map[string]bool{},
		freeSet:   map[string]bool{},
	}
}

func (s *symScope) bind(name string) {
	if s.globals[name] || s.nonlocals[name] {
		return
	}
	if !s.locals[name] {
		s.locals[name] = true
		s.localOrder = append(s.localOrder, name)
	}
}

func (s *symScope) use(name string) {
	if !s.useSet[name] {
		s.useSet[name] = true
		s.useOrder = append(s.useOrder, name)
	}
}

func (s *symScope) markFree(name string) {
	if !s.freeSet[name] {
		s.freeSet[name] = true
		s.freeOrder = append(s.freeOrder, name)
	}
}

// collectScope fills a scope's binding and use sets from a statement list.
func collectScope(s *symScope, body []Stmt) error {
	// Declarations first so that `global n` anywhere in the body governs all
	// bindings of n within it.
	if err := collectDecls(s, body); err != nil {
		return err
	}
	return collectStmts(s, body)
}

func collectDecls(s *symScope, body []Stmt) error {
	for _, st := range body {
		switch st := st.(type) {
		case *GlobalStmt:
			for _, n := range st.Names {
				s.globals[n] = true
			}
		case *NonlocalStmt:
			if s.fn == nil {
				return &CompileError{Line: st.Line, Msg: "nonlocal declaration at module level"}
			}
			for _, n := range st.Names {
				s.nonlocals[n] = true
			}
		case *IfStmt:
			if err := collectDecls(s, st.Then); err != nil {
				return err
			}
			if err := collectDecls(s, st.Else); err != nil {
				return err
			}
		case *WhileStmt:
			if err := collectDecls(s, st.Body); err != nil {
				return err
			}
		case *ForStmt:
			if err := collectDecls(s, st.Body); err != nil {
				return err
			}
		}
	}
	return nil
}

func collectStmts(s *symScope, body []Stmt) error {
	for _, st := range body {
		if err := collectStmt(s, st); err != nil {
			return err
		}
	}
	return nil
}

func collectStmt(s *symScope, st Stmt) error {
	switch st := st.(type) {
	case *ExprStmt:
		collectExpr(s, st.X)
	case *AssignStmt:
		collectExpr(s, st.Value)
		collectTarget(s, st.Target)
	case *AugAssignStmt:
		collectExpr(s, st.Value)
		if n, ok := st.Target.(*NameExpr); ok {
			s.use(n.Name)
			s.bind(n.Name)
		} else {
			collectExpr(s, st.Target)
		}
	case *IfStmt:
		collectExpr(s, st.Cond)
		if err := collectStmts(s, st.Then); err != nil {
			return err
		}
		return collectStmts(s, st.Else)
	case *WhileStmt:
		collectExpr(s, st.Cond)
		return collectStmts(s, st.Body)
	case *ForStmt:
		collectExpr(s, st.Iterable)
		collectTarget(s, st.Var)
		return collectStmts(s, st.Body)
	case *ReturnStmt:
		if s.fn == nil {
			return &CompileError{Line: st.Line, Msg: "'return' outside function"}
		}
		if st.Value != nil {
			collectExpr(s, st.Value)
		}
	case *DelStmt:
		collectExpr(s, st.Target)
	case *FuncDef:
		s.bind(st.Name)
		child := newSymScope(st, s)
		s.children[st] = child
		for _, p := range st.Params {
			child.bind(p)
		}
		return collectScope(child, st.Body)
	case *ClassDef:
		s.bind(st.Name)
		if st.Base != "" {
			s.use(st.Base)
		}
		for _, cs := range st.Body {
			switch cs := cs.(type) {
			case *FuncDef:
				child := newSymScope(cs, s)
				s.children[cs] = child
				for _, p := range cs.Params {
					child.bind(p)
				}
				if err := collectScope(child, cs.Body); err != nil {
					return err
				}
			case *AssignStmt:
				if _, ok := cs.Target.(*NameExpr); !ok {
					return &CompileError{Line: cs.Line, Msg: "class body assignments must target plain names"}
				}
				collectExpr(s, cs.Value)
			case *PassStmt:
			default:
				line, _ := cs.Pos()
				return &CompileError{Line: line, Msg: "unsupported statement in class body"}
			}
		}
	case *BreakStmt, *ContinueStmt, *PassStmt, *GlobalStmt, *NonlocalStmt:
	}
	return nil
}

func collectTarget(s *symScope, e Expr) {
	switch e := e.(type) {
	case *NameExpr:
		s.bind(e.Name)
	case *TupleLit:
		for _, el := range e.Elems {
			collectTarget(s, el)
		}
	case *IndexExpr:
		collectExpr(s, e.Target)
		collectExpr(s, e.Index)
	case *AttrExpr:
		collectExpr(s, e.Target)
	}
}

func collectExpr(s *symScope, e Expr) {
	switch e := e.(type) {
	case *NameExpr:
		s.use(e.Name)
	case *BinOp:
		collectExpr(s, e.Left)
		collectExpr(s, e.Right)
	case *BoolOp:
		collectExpr(s, e.Left)
		collectExpr(s, e.Right)
	case *UnaryOp:
		collectExpr(s, e.Operand)
	case *CallExpr:
		collectExpr(s, e.Fn)
		for _, a := range e.Args {
			collectExpr(s, a)
		}
	case *IndexExpr:
		collectExpr(s, e.Target)
		collectExpr(s, e.Index)
	case *SliceExpr:
		collectExpr(s, e.Target)
		if e.Lo != nil {
			collectExpr(s, e.Lo)
		}
		if e.Hi != nil {
			collectExpr(s, e.Hi)
		}
	case *AttrExpr:
		collectExpr(s, e.Target)
	case *ListLit:
		for _, el := range e.Elems {
			collectExpr(s, el)
		}
	case *TupleLit:
		for _, el := range e.Elems {
			collectExpr(s, el)
		}
	case *DictLit:
		for i := range e.Keys {
			collectExpr(s, e.Keys[i])
			collectExpr(s, e.Values[i])
		}
	case *CondExpr:
		collectExpr(s, e.Cond)
		collectExpr(s, e.Then)
		collectExpr(s, e.Else)
	}
}

// resolveScopes classifies every free use: local, cell (closure), or global.
func resolveScopes(s *symScope) error {
	if s.fn != nil {
		names := append([]string{}, s.useOrder...)
		for n := range s.nonlocals {
			names = append(names, n)
		}
		for _, name := range names {
			if s.locals[name] && !s.nonlocals[name] {
				continue // plain local (may become a cellvar via children)
			}
			if s.globals[name] {
				continue
			}
			owner := (*symScope)(nil)
			for a := s.parent; a != nil && a.fn != nil; a = a.parent {
				if a.locals[name] && !a.nonlocals[name] && !a.globals[name] {
					owner = a
					break
				}
			}
			if owner == nil {
				if s.nonlocals[name] {
					return &CompileError{Msg: fmt.Sprintf("no binding for nonlocal '%s' found", name)}
				}
				continue // global or builtin
			}
			owner.cellvars[name] = true
			for x := s; x != owner; x = x.parent {
				x.markFree(name)
			}
		}
	}
	for _, child := range s.children {
		if err := resolveScopes(child); err != nil {
			return err
		}
	}
	return nil
}

// ---- Code generation ----

type loopInfo struct {
	isFor      bool
	headPC     int   // continue target
	breakFixes []int // jump sites to patch with the exit pc
}

type funcCompiler struct {
	scope    *symScope
	code     *Code
	constMap map[interface{}]int
	nameMap  map[string]int
	localIdx map[string]int
	cellIdx  map[string]int // runtime cell slot: cellvars then freevars
	loops    []loopInfo
}

func newFuncCompiler(scope *symScope, name string, params []string, isModule bool) *funcCompiler {
	fc := &funcCompiler{
		scope:    scope,
		code:     &Code{Name: name, NumParams: len(params), IsModule: isModule},
		constMap: map[interface{}]int{},
		nameMap:  map[string]int{},
		localIdx: map[string]int{},
		cellIdx:  map[string]int{},
	}
	if !isModule {
		// Params occupy the first local slots; remaining locals follow in
		// binding order.
		for _, p := range params {
			fc.addLocal(p)
		}
		for _, n := range scope.localOrder {
			if _, ok := fc.localIdx[n]; !ok {
				fc.addLocal(n)
			}
		}
		// Cell slots: cellvars in local order, then freevars.
		for _, n := range fc.code.LocalNames {
			if scope.cellvars[n] {
				fc.cellIdx[n] = len(fc.code.CellLocals)
				fc.code.CellLocals = append(fc.code.CellLocals, fc.localIdx[n])
			}
		}
		for i, n := range scope.freeOrder {
			fc.cellIdx[n] = len(fc.code.CellLocals) + i
		}
		fc.code.FreeNames = append([]string{}, scope.freeOrder...)
	}
	return fc
}

func (fc *funcCompiler) addLocal(n string) {
	fc.localIdx[n] = len(fc.code.LocalNames)
	fc.code.LocalNames = append(fc.code.LocalNames, n)
}

func (fc *funcCompiler) emit(op Op, arg int32, line int) int {
	pc := len(fc.code.Ops)
	fc.code.Ops = append(fc.code.Ops, Instr{Op: op, Arg: arg})
	fc.code.Lines = append(fc.code.Lines, int32(line))
	return pc
}

func (fc *funcCompiler) patch(pc int, target int) {
	fc.code.Ops[pc].Arg = int32(target)
}

func (fc *funcCompiler) here() int { return len(fc.code.Ops) }

type constKey struct {
	kind byte
	i    int64
	f    float64
	s    string
}

func (fc *funcCompiler) constIdx(v Value) int {
	var k interface{}
	switch v := v.(type) {
	case Int:
		k = constKey{kind: 'i', i: int64(v)}
	case Float:
		k = constKey{kind: 'f', f: float64(v)}
	case Str:
		k = constKey{kind: 's', s: string(v)}
	case Bool:
		k = constKey{kind: 'b', i: int64(btoi(v))}
	case NoneType:
		k = constKey{kind: 'n'}
	default:
		// Code objects and such: never deduplicated.
		idx := len(fc.code.Consts)
		fc.code.Consts = append(fc.code.Consts, v)
		return idx
	}
	if idx, ok := fc.constMap[k]; ok {
		return idx
	}
	idx := len(fc.code.Consts)
	fc.code.Consts = append(fc.code.Consts, v)
	fc.constMap[k] = idx
	return idx
}

func (fc *funcCompiler) nameIdx(n string) int {
	if idx, ok := fc.nameMap[n]; ok {
		return idx
	}
	idx := len(fc.code.Names)
	fc.code.Names = append(fc.code.Names, n)
	fc.nameMap[n] = idx
	return idx
}

func (fc *funcCompiler) emitLoadName(name string, line int) {
	s := fc.scope
	if s.fn == nil { // module scope: everything is global
		fc.emit(OpLoadGlobal, int32(fc.nameIdx(name)), line)
		return
	}
	if s.globals[name] {
		fc.emit(OpLoadGlobal, int32(fc.nameIdx(name)), line)
		return
	}
	if ci, ok := fc.cellIdx[name]; ok {
		fc.emit(OpLoadCell, int32(ci), line)
		return
	}
	if li, ok := fc.localIdx[name]; ok {
		fc.emit(OpLoadLocal, int32(li), line)
		return
	}
	fc.emit(OpLoadGlobal, int32(fc.nameIdx(name)), line)
}

func (fc *funcCompiler) emitStoreName(name string, line int) {
	s := fc.scope
	if s.fn == nil || s.globals[name] {
		fc.emit(OpStoreGlobal, int32(fc.nameIdx(name)), line)
		return
	}
	if ci, ok := fc.cellIdx[name]; ok {
		fc.emit(OpStoreCell, int32(ci), line)
		return
	}
	if li, ok := fc.localIdx[name]; ok {
		fc.emit(OpStoreLocal, int32(li), line)
		return
	}
	fc.emit(OpStoreGlobal, int32(fc.nameIdx(name)), line)
}

func (fc *funcCompiler) stmt(st Stmt) error {
	switch st := st.(type) {
	case *ExprStmt:
		if err := fc.expr(st.X); err != nil {
			return err
		}
		fc.emit(OpPop, 0, st.Line)
	case *AssignStmt:
		return fc.assign(st)
	case *AugAssignStmt:
		return fc.augAssign(st)
	case *IfStmt:
		return fc.ifStmt(st)
	case *WhileStmt:
		return fc.whileStmt(st)
	case *ForStmt:
		return fc.forStmt(st)
	case *ReturnStmt:
		// Every enclosing for loop holds its iterator on the stack; drop
		// them first (the value expression cannot refer to them).
		for _, li := range fc.loops {
			if li.isFor {
				fc.emit(OpPop, 0, st.Line)
			}
		}
		if st.Value != nil {
			if err := fc.expr(st.Value); err != nil {
				return err
			}
		} else {
			fc.emit(OpLoadConst, int32(fc.constIdx(None)), st.Line)
		}
		fc.emit(OpReturn, 0, st.Line)
	case *BreakStmt:
		if len(fc.loops) == 0 {
			return &CompileError{Line: st.Line, Msg: "'break' outside loop"}
		}
		li := &fc.loops[len(fc.loops)-1]
		if li.isFor {
			fc.emit(OpPop, 0, st.Line) // discard the iterator
		}
		li.breakFixes = append(li.breakFixes, fc.emit(OpJump, 0, st.Line))
	case *ContinueStmt:
		if len(fc.loops) == 0 {
			return &CompileError{Line: st.Line, Msg: "'continue' outside loop"}
		}
		li := fc.loops[len(fc.loops)-1]
		fc.emit(OpJump, int32(li.headPC), st.Line)
	case *PassStmt, *GlobalStmt, *NonlocalStmt:
	case *DelStmt:
		idx := st.Target.(*IndexExpr)
		if err := fc.expr(idx.Target); err != nil {
			return err
		}
		if err := fc.expr(idx.Index); err != nil {
			return err
		}
		fc.emit(OpDelIndex, 0, st.Line)
	case *FuncDef:
		if err := fc.funcDef(st); err != nil {
			return err
		}
		fc.emitStoreName(st.Name, st.Line)
	case *ClassDef:
		return fc.classDef(st)
	default:
		line, _ := st.Pos()
		return &CompileError{Line: line, Msg: fmt.Sprintf("unsupported statement %T", st)}
	}
	return nil
}

// funcDef compiles the function body and leaves the function object on the
// stack.
func (fc *funcCompiler) funcDef(st *FuncDef) error {
	child := fc.scope.children[st]
	sub := newFuncCompiler(child, st.Name, st.Params, false)
	for _, s := range st.Body {
		if err := sub.stmt(s); err != nil {
			return err
		}
	}
	sub.emit(OpLoadConst, int32(sub.constIdx(None)), st.Line)
	sub.emit(OpReturn, 0, st.Line)
	// Capture the free cells in the child's FreeNames order.
	for _, fn := range sub.code.FreeNames {
		ci, ok := fc.cellIdx[fn]
		if !ok {
			return &CompileError{Line: st.Line, Msg: fmt.Sprintf("internal: free variable '%s' not found in enclosing scope", fn)}
		}
		fc.emit(OpPushCell, int32(ci), st.Line)
	}
	fc.emit(OpMakeFunction, int32(fc.constIdx(sub.code)), st.Line)
	return nil
}

func (fc *funcCompiler) classDef(st *ClassDef) error {
	fc.emit(OpLoadConst, int32(fc.constIdx(Str(st.Name))), st.Line)
	if st.Base != "" {
		fc.emitLoadName(st.Base, st.Line)
	} else {
		fc.emit(OpLoadConst, int32(fc.constIdx(None)), st.Line)
	}
	pairs := 0
	for _, cs := range st.Body {
		switch cs := cs.(type) {
		case *FuncDef:
			fc.emit(OpLoadConst, int32(fc.constIdx(Str(cs.Name))), cs.Line)
			if err := fc.funcDef(cs); err != nil {
				return err
			}
			pairs++
		case *AssignStmt:
			name := cs.Target.(*NameExpr).Name
			fc.emit(OpLoadConst, int32(fc.constIdx(Str(name))), cs.Line)
			if err := fc.expr(cs.Value); err != nil {
				return err
			}
			pairs++
		case *PassStmt:
		}
	}
	fc.emit(OpBuildClass, int32(pairs), st.Line)
	fc.emitStoreName(st.Name, st.Line)
	return nil
}

func (fc *funcCompiler) assign(st *AssignStmt) error {
	switch target := st.Target.(type) {
	case *NameExpr:
		if err := fc.expr(st.Value); err != nil {
			return err
		}
		fc.emitStoreName(target.Name, st.Line)
	case *TupleLit:
		if err := fc.expr(st.Value); err != nil {
			return err
		}
		fc.emit(OpUnpack, int32(len(target.Elems)), st.Line)
		for _, el := range target.Elems {
			if err := fc.storeTarget(el, st.Line); err != nil {
				return err
			}
		}
	case *IndexExpr:
		if err := fc.expr(target.Target); err != nil {
			return err
		}
		if err := fc.expr(target.Index); err != nil {
			return err
		}
		if err := fc.expr(st.Value); err != nil {
			return err
		}
		fc.emit(OpIndexSet, 0, st.Line)
	case *AttrExpr:
		if err := fc.expr(target.Target); err != nil {
			return err
		}
		if err := fc.expr(st.Value); err != nil {
			return err
		}
		fc.emit(OpStoreAttr, int32(fc.nameIdx(target.Name)), st.Line)
	default:
		return &CompileError{Line: st.Line, Msg: "invalid assignment target"}
	}
	return nil
}

// storeTarget stores the value on top of the stack into a simple target.
func (fc *funcCompiler) storeTarget(e Expr, line int) error {
	switch e := e.(type) {
	case *NameExpr:
		fc.emitStoreName(e.Name, line)
		return nil
	case *IndexExpr:
		// Stack: [value]. Need [target, index, value].
		// Evaluate target and index, then rotate via a temp-free trick: we
		// re-emit as value-first is inconvenient, so use DUP-free approach:
		// push target, push index, then the value is buried. Keep it simple:
		// disallow; tuple-unpack into subscripts is rare in benchmarks.
		return &CompileError{Line: line, Msg: "tuple unpacking into subscripts is not supported"}
	default:
		return &CompileError{Line: line, Msg: "unsupported unpack target"}
	}
}

func (fc *funcCompiler) augAssign(st *AugAssignStmt) error {
	bin := binCodeFor(st.Op)
	switch target := st.Target.(type) {
	case *NameExpr:
		fc.emitLoadName(target.Name, st.Line)
		if err := fc.expr(st.Value); err != nil {
			return err
		}
		fc.emit(OpBinary, int32(bin), st.Line)
		fc.emitStoreName(target.Name, st.Line)
	case *IndexExpr:
		if err := fc.expr(target.Target); err != nil {
			return err
		}
		if err := fc.expr(target.Index); err != nil {
			return err
		}
		fc.emit(OpDup2, 0, st.Line)
		fc.emit(OpIndexGet, 0, st.Line)
		if err := fc.expr(st.Value); err != nil {
			return err
		}
		fc.emit(OpBinary, int32(bin), st.Line)
		fc.emit(OpIndexSet, 0, st.Line)
	case *AttrExpr:
		if err := fc.expr(target.Target); err != nil {
			return err
		}
		fc.emit(OpDup, 0, st.Line)
		fc.emit(OpLoadAttr, int32(fc.nameIdx(target.Name)), st.Line)
		if err := fc.expr(st.Value); err != nil {
			return err
		}
		fc.emit(OpBinary, int32(bin), st.Line)
		fc.emit(OpStoreAttr, int32(fc.nameIdx(target.Name)), st.Line)
	default:
		return &CompileError{Line: st.Line, Msg: "invalid augmented assignment target"}
	}
	return nil
}

func (fc *funcCompiler) ifStmt(st *IfStmt) error {
	if err := fc.expr(st.Cond); err != nil {
		return err
	}
	jElse := fc.emit(OpJumpIfFalse, 0, st.Line)
	for _, s := range st.Then {
		if err := fc.stmt(s); err != nil {
			return err
		}
	}
	if len(st.Else) == 0 {
		fc.patch(jElse, fc.here())
		return nil
	}
	jEnd := fc.emit(OpJump, 0, st.Line)
	fc.patch(jElse, fc.here())
	for _, s := range st.Else {
		if err := fc.stmt(s); err != nil {
			return err
		}
	}
	fc.patch(jEnd, fc.here())
	return nil
}

func (fc *funcCompiler) whileStmt(st *WhileStmt) error {
	head := fc.here()
	if err := fc.expr(st.Cond); err != nil {
		return err
	}
	jExit := fc.emit(OpJumpIfFalse, 0, st.Line)
	fc.loops = append(fc.loops, loopInfo{isFor: false, headPC: head})
	for _, s := range st.Body {
		if err := fc.stmt(s); err != nil {
			return err
		}
	}
	fc.emit(OpJump, int32(head), st.Line)
	exit := fc.here()
	fc.patch(jExit, exit)
	li := fc.loops[len(fc.loops)-1]
	fc.loops = fc.loops[:len(fc.loops)-1]
	for _, pc := range li.breakFixes {
		fc.patch(pc, exit)
	}
	return nil
}

func (fc *funcCompiler) forStmt(st *ForStmt) error {
	if err := fc.expr(st.Iterable); err != nil {
		return err
	}
	fc.emit(OpGetIter, 0, st.Line)
	head := fc.here()
	jIter := fc.emit(OpForIter, 0, st.Line)
	switch v := st.Var.(type) {
	case *NameExpr:
		fc.emitStoreName(v.Name, st.Line)
	case *TupleLit:
		fc.emit(OpUnpack, int32(len(v.Elems)), st.Line)
		for _, el := range v.Elems {
			if err := fc.storeTarget(el, st.Line); err != nil {
				return err
			}
		}
	}
	fc.loops = append(fc.loops, loopInfo{isFor: true, headPC: head})
	for _, s := range st.Body {
		if err := fc.stmt(s); err != nil {
			return err
		}
	}
	fc.emit(OpJump, int32(head), st.Line)
	exit := fc.here()
	fc.patch(jIter, exit)
	li := fc.loops[len(fc.loops)-1]
	fc.loops = fc.loops[:len(fc.loops)-1]
	for _, pc := range li.breakFixes {
		fc.patch(pc, exit)
	}
	return nil
}

func binCodeFor(k Kind) BinOpCode {
	switch k {
	case Plus:
		return BinAdd
	case Minus:
		return BinSub
	case Star:
		return BinMul
	case Slash:
		return BinDiv
	case SlashSlash:
		return BinFloorDiv
	case Percent:
		return BinMod
	case StarStar:
		return BinPow
	case Eq:
		return BinEq
	case Ne:
		return BinNe
	case Lt:
		return BinLt
	case Le:
		return BinLe
	case Gt:
		return BinGt
	case Ge:
		return BinGe
	case KwIn:
		return BinIn
	}
	panic("minipy: no binary op for token " + k.String())
}

func (fc *funcCompiler) expr(e Expr) error {
	switch e := e.(type) {
	case *NameExpr:
		fc.emitLoadName(e.Name, e.Line)
	case *IntLit:
		fc.emit(OpLoadConst, int32(fc.constIdx(Int(e.Value))), e.Line)
	case *FloatLit:
		fc.emit(OpLoadConst, int32(fc.constIdx(Float(e.Value))), e.Line)
	case *StrLit:
		fc.emit(OpLoadConst, int32(fc.constIdx(Str(e.Value))), e.Line)
	case *BoolLit:
		fc.emit(OpLoadConst, int32(fc.constIdx(Bool(e.Value))), e.Line)
	case *NoneLit:
		fc.emit(OpLoadConst, int32(fc.constIdx(None)), e.Line)
	case *BinOp:
		if err := fc.expr(e.Left); err != nil {
			return err
		}
		if err := fc.expr(e.Right); err != nil {
			return err
		}
		fc.emit(OpBinary, int32(binCodeFor(e.Op)), e.Line)
	case *BoolOp:
		if err := fc.expr(e.Left); err != nil {
			return err
		}
		var j int
		if e.Op == KwAnd {
			j = fc.emit(OpJumpIfFalseKeep, 0, e.Line)
		} else {
			j = fc.emit(OpJumpIfTrueKeep, 0, e.Line)
		}
		if err := fc.expr(e.Right); err != nil {
			return err
		}
		fc.patch(j, fc.here())
	case *UnaryOp:
		if err := fc.expr(e.Operand); err != nil {
			return err
		}
		switch e.Op {
		case Minus:
			fc.emit(OpUnary, int32(UnNeg), e.Line)
		case Plus:
			fc.emit(OpUnary, int32(UnPos), e.Line)
		case KwNot:
			fc.emit(OpUnary, int32(UnNot), e.Line)
		}
	case *CallExpr:
		if err := fc.expr(e.Fn); err != nil {
			return err
		}
		for _, a := range e.Args {
			if err := fc.expr(a); err != nil {
				return err
			}
		}
		fc.emit(OpCall, int32(len(e.Args)), e.Line)
	case *IndexExpr:
		if err := fc.expr(e.Target); err != nil {
			return err
		}
		if err := fc.expr(e.Index); err != nil {
			return err
		}
		fc.emit(OpIndexGet, 0, e.Line)
	case *SliceExpr:
		if err := fc.expr(e.Target); err != nil {
			return err
		}
		if e.Lo != nil {
			if err := fc.expr(e.Lo); err != nil {
				return err
			}
		} else {
			fc.emit(OpLoadConst, int32(fc.constIdx(None)), e.Line)
		}
		if e.Hi != nil {
			if err := fc.expr(e.Hi); err != nil {
				return err
			}
		} else {
			fc.emit(OpLoadConst, int32(fc.constIdx(None)), e.Line)
		}
		fc.emit(OpSliceGet, 0, e.Line)
	case *AttrExpr:
		if err := fc.expr(e.Target); err != nil {
			return err
		}
		fc.emit(OpLoadAttr, int32(fc.nameIdx(e.Name)), e.Line)
	case *ListLit:
		for _, el := range e.Elems {
			if err := fc.expr(el); err != nil {
				return err
			}
		}
		fc.emit(OpBuildList, int32(len(e.Elems)), e.Line)
	case *TupleLit:
		for _, el := range e.Elems {
			if err := fc.expr(el); err != nil {
				return err
			}
		}
		fc.emit(OpBuildTuple, int32(len(e.Elems)), e.Line)
	case *DictLit:
		for i := range e.Keys {
			if err := fc.expr(e.Keys[i]); err != nil {
				return err
			}
			if err := fc.expr(e.Values[i]); err != nil {
				return err
			}
		}
		fc.emit(OpBuildDict, int32(len(e.Keys)), e.Line)
	case *CondExpr:
		if err := fc.expr(e.Cond); err != nil {
			return err
		}
		jElse := fc.emit(OpJumpIfFalse, 0, e.Line)
		if err := fc.expr(e.Then); err != nil {
			return err
		}
		jEnd := fc.emit(OpJump, 0, e.Line)
		fc.patch(jElse, fc.here())
		if err := fc.expr(e.Else); err != nil {
			return err
		}
		fc.patch(jEnd, fc.here())
	default:
		line, _ := e.Pos()
		return &CompileError{Line: line, Msg: fmt.Sprintf("unsupported expression %T", e)}
	}
	return nil
}
