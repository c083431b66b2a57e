package analysis

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/minipy"
)

// This file is the package's one abstract interpreter (DESIGN.md §9, §14).
// Its abstract value is the product of four components:
//
//   - class: a flat type lattice (⊥ ⊑ int, float, str, ... ⊑ ⊤) with
//     callable provenance. A concrete class at a program point holds on
//     every path reaching it, which is what licenses a "certain" type-error
//     diagnostic;
//   - interval: an integer interval, the certificate's claims;
//   - freshness: whether the value may (or must) have been allocated in
//     the current activation, the escape facts;
//   - definite assignment: whether a local may be, or must be, unassigned,
//     and whether a cell-boxed local may be; the raise-free loads and the
//     use-before-def and possibly-unassigned findings.
//
// InterprocAnalyze (interproc.go) runs it twice per code object. Pass A
// gives every parameter ⊤ and harvests call facts; Analyze reports its lint
// findings (type errors, unresolved globals, definite assignment,
// typed-instruction counts), so none depends on call sites. Pass B runs
// with call-site parameters and records the claims the optimizer consumes
// and the VM-level soundness checker verifies. Everything errs toward ⊤:
// an imprecise fact is useless but sound; a precise wrong fact is a bug
// the property tests exist to catch.

// vclass is the class component: the flat lattice ⊥ ⊑ {int, float, str,
// bool, list, dict, tuple, function, None, range, class, object, iterator}
// ⊑ ⊤. ⊥ means "not yet assigned on this path" and is the identity of
// join; ⊤ (cAny) means any type.
type vclass uint8

const (
	cAny vclass = iota
	cInt
	cFloat
	cStr
	cBool
	cList
	cDict
	cTuple
	cFunc
	cNone
	cRange
	cClass
	cInst
	cIter
	cBot
)

var classNames = [...]string{
	cAny: "⊤", cInt: "int", cFloat: "float", cStr: "str", cBool: "bool",
	cList: "list", cDict: "dict", cTuple: "tuple", cFunc: "function",
	cNone: "None", cRange: "range", cClass: "class", cInst: "object",
	cIter: "iterator", cBot: "⊥",
}

func (c vclass) String() string { return classNames[c] }

// classIn reports membership of c in set.
func classIn(c vclass, set ...vclass) bool {
	for _, s := range set {
		if c == s {
			return true
		}
	}
	return false
}

// numericClass reports whether c takes part in arithmetic promotion.
func numericClass(c vclass) bool { return classIn(c, cInt, cFloat, cBool) }

// heapClass reports whether values of this class carry a synthetic heap
// address (minipy.AddrOf succeeds on them).
func heapClass(c vclass) bool {
	return classIn(c, cList, cTuple, cDict, cClass, cInst)
}

// absv is the abstract value: class + callable provenance + interval +
// freshness + definite-assignment bits.
type absv struct {
	iv  ival
	cls vclass
	// elemCls is the element class of a cIter value.
	elemCls vclass
	// fn is callable identity: "u:name" (stable module-level function
	// binding), "b:name" (builtin), "m:recv.method" (bound builtin
	// method). Empty = unknown callable or not a callable.
	fn string
	// recvFresh, for "m:" values, records that the receiver is definitely
	// fresh in this activation (mutating it is activation-local).
	recvFresh bool
	// mayFresh: the value may have been allocated during the current
	// activation. mustFresh: it definitely was (on every path).
	mayFresh  bool
	mustFresh bool
	// closure: the value is (or contains) a closure capturing this frame.
	closure bool
	// unbound: a local that may be unassigned (loading it may raise).
	// neverBound: one unassigned on every path (loading it always raises).
	// A load clears both on the copy it pushes, so no stored value has them.
	unbound, neverBound bool
	// elem/length describe iteration for cRange/cIter values: the element
	// interval and the remaining-iteration count.
	elem, length ival
}

var avTop = absv{iv: ivTop, cls: cAny, mayFresh: true, elem: ivTop, length: ivTop}

func avInt(iv ival) absv { return absv{iv: iv, cls: cInt, elem: ivTop, length: ivTop} }

func avScalar(c vclass) absv { return absv{iv: ivTop, cls: c, elem: ivTop, length: ivTop} }

// avFreshHeap is a newly allocated container/object: fresh on every path.
func avFreshHeap(c vclass) absv {
	return absv{iv: ivTop, cls: c, mayFresh: true, mustFresh: true, elem: ivTop, length: ivTop}
}

// kind is the class as the interval refines it: a proven int is an int
// whatever the class says, and ⊥ reads as unknown. The interval, freshness
// and effect rules classify values by kind; the lint rules and the typed
// coverage read the class alone.
func (v absv) kind() vclass {
	if v.iv.isInt() {
		return cInt
	}
	if v.cls == cBot {
		return cAny
	}
	return v.cls
}

// constAbsv abstracts a constant-pool value. Constants are materialized at
// compile time, before any activation, so they are never fresh.
func constAbsv(v minipy.Value) absv {
	switch x := v.(type) {
	case minipy.Int:
		return avInt(ivConst(int64(x)))
	case minipy.Float:
		return avScalar(cFloat)
	case minipy.Bool:
		return avScalar(cBool)
	case minipy.NoneType:
		return avScalar(cNone)
	case minipy.Str:
		return avScalar(cStr)
	case *minipy.Tuple:
		return avScalar(cTuple)
	}
	return avScalar(cAny)
}

// avJoin merges two abstract values at a control-flow join. esc is invoked
// for any user-function provenance that is lost in the merge: once a
// function value's identity blurs, every later consumption is untrackable,
// so the conservative reading is "that function escaped".
func avJoin(a, b absv, esc func(fn string)) absv {
	out := absv{
		iv:         ivJoin(a.iv, b.iv),
		mayFresh:   a.mayFresh || b.mayFresh,
		mustFresh:  a.mustFresh && b.mustFresh,
		closure:    a.closure || b.closure,
		unbound:    a.unbound || b.unbound,
		neverBound: a.neverBound && b.neverBound,
		elem:       ivJoin(a.elem, b.elem),
		length:     ivJoin(a.length, b.length),
	}
	// ⊥ is the identity of the class join; an iterator keeps its element
	// class only when both sides agree.
	switch {
	case a.cls == cBot:
		out.cls, out.elemCls = b.cls, b.elemCls
	case b.cls == cBot:
		out.cls, out.elemCls = a.cls, a.elemCls
	case a.cls == b.cls:
		out.cls = a.cls
		if a.elemCls == b.elemCls {
			out.elemCls = a.elemCls
		}
	}
	if a.fn == b.fn {
		out.fn = a.fn
		out.recvFresh = a.recvFresh && b.recvFresh
	} else if esc != nil {
		if strings.HasPrefix(a.fn, "u:") {
			esc(a.fn[2:])
		}
		if strings.HasPrefix(b.fn, "u:") {
			esc(b.fn[2:])
		}
	}
	return out
}

// astate is the abstract machine state at one program point. Cell values
// are not tracked: any call can rebind a cell, so every cell read is ⊤.
// cellUnbound[j] is whether cell-boxed local j may be unassigned: only its
// own STORE_CELL clears it, so a call never proves a cell assigned; and
// since a call may assign it, no load of one is certain to fail.
type astate struct {
	stack       []absv
	locals      []absv
	cellUnbound []bool
}

func (s *astate) clone() *astate {
	return &astate{
		stack:       append([]absv(nil), s.stack...),
		locals:      append([]absv(nil), s.locals...),
		cellUnbound: append([]bool(nil), s.cellUnbound...),
	}
}

// joinInto merges o into s (s is the accumulator). widen applies interval
// widening instead of plain join. Returns whether s changed.
func (s *astate) joinInto(o *astate, widen bool, esc func(string)) bool {
	changed := false
	merge := func(dst *absv, src absv) {
		old := *dst
		j := avJoin(old, src, esc)
		if widen {
			j.iv = ivWiden(old.iv, j.iv)
			j.elem = ivWiden(old.elem, j.elem)
			j.length = ivWiden(old.length, j.length)
		}
		if j != old {
			*dst = j
			changed = true
		}
	}
	// The verifier guarantees consistent stack depths per pc; align from
	// the top defensively if they ever disagree.
	if len(o.stack) < len(s.stack) {
		s.stack = s.stack[len(s.stack)-len(o.stack):]
		changed = true
	}
	off := len(o.stack) - len(s.stack)
	for i := range s.stack {
		merge(&s.stack[i], o.stack[off+i])
	}
	for i := range s.locals {
		merge(&s.locals[i], o.locals[i])
	}
	for j, u := range o.cellUnbound {
		if u && !s.cellUnbound[j] {
			s.cellUnbound[j] = true
			changed = true
		}
	}
	return changed
}

// callFact records one resolved direct call site.
type callFact struct {
	name string
	argc int
	args []ival
}

// absRun is the converged result of abstractly interpreting one code
// object.
type absRun struct {
	code *minipy.Code

	// params echoes the parameter intervals the run assumed (nil = ⊤).
	params []ival

	// claims[pc]: after the op at pc executes, the top of stack is a
	// minipy.Int within the interval. Only recorded for plain value-
	// producing ops (never control flow), so the VM checker can sample
	// the stack top unconditionally.
	claims map[int]ival

	// calls[pc]: resolved direct call at an OpCall site.
	calls map[int]callFact
	// callsUnknown: at least one call site's callee could not be resolved
	// (first-class value, class constructor, method on unknown receiver).
	callsUnknown bool
	// escaped: user functions whose values flowed somewhere other than a
	// direct call position in this code object.
	escaped map[string]bool

	// trips[pc]: the iteration-count interval of the OpForIter at pc
	// (ivTop when the iterable's length is unknown).
	trips map[int]ival

	divSites, divSafe int

	returnIv       ival
	returnMayFresh bool
	frameEscapes   bool

	mutatesNonFresh bool
	mayRaise        bool
	usesIO          bool

	// The lint findings: certain type errors, unresolved globals (warned
	// dedupes them per name) and loads of variables that may be unassigned
	// (unassignedWarned dedupes the warnings per local slot, and per cell
	// j as ^j), the reachable instructions whose inspected operands all
	// have a known class, and all reachable instructions.
	diags            []Diagnostic
	warned           map[string]bool
	unassignedWarned map[int]bool
	typed            int
	reachable        int
}

// absEnv is the module-level environment shared by every per-function run.
type absEnv struct {
	// bindings: stable module-level function bindings (exactly one
	// STORE_GLOBAL in the whole module, at the module-body def site).
	bindings map[string]*minipy.Code
	// consts: stable single-store constant globals (LOAD_CONST;
	// STORE_GLOBAL in the module body, never stored again).
	consts map[string]absv
	// defined: every STORE_GLOBAL name anywhere in the module.
	defined map[string]bool
	// globals: per module global, the class components (class, element
	// class, builtin or method provenance) joined over every value stored
	// to it. A name that nested code stores starts at ⊤ and stays there:
	// any call may rebind it.
	globals map[string]absv
	// builtins: the VM's deterministic builtin names.
	builtins map[string]bool
	// io: builtin names that perform IO.
	io map[string]bool
	// bindSites[code][pc]: the MakeFunction at pc is the binding def site
	// for the named global function.
	bindSites map[*minipy.Code]map[int]string
	// paramIv: per bound function, the join of argument intervals over
	// every resolved call site (pass B); nil values mean ⊤.
	paramIv map[string][]ival
	// retIv / retNotFresh: per bound function, the pass-A return interval
	// and the pass-A proof that it never returns a value allocated in its
	// own activation.
	retIv       map[string]ival
	retNotFresh map[string]bool
}

// storeGlobal joins the class components of a stored value into the
// global's entry. Function identity is not kept: it comes from bindings.
func (env *absEnv) storeGlobal(name string, v absv) {
	c := absv{cls: v.cls, elemCls: v.elemCls, fn: v.fn}
	if strings.HasPrefix(c.fn, "u:") {
		c.fn = ""
	}
	if old, ok := env.globals[name]; ok {
		c = avJoin(old, c, nil)
	}
	env.globals[name] = c
}

// entryState builds the frame-entry abstract state. Arguments are evaluated
// by the caller before the frame exists, so parameters start not-fresh;
// the other locals start unassigned (class ⊥, unbound on every path). The
// VM boxes a cell-boxed parameter from its argument, so only the other
// cell-boxed locals start possibly unassigned; free cells arrive assigned.
func entryState(code *minipy.Code, params []ival) *astate {
	st := &astate{locals: make([]absv, len(code.LocalNames)),
		cellUnbound: make([]bool, len(code.CellLocals))}
	for i := range st.locals {
		v := avTop
		v.mayFresh = false
		if i >= code.NumParams {
			v.cls = cBot
			v.unbound, v.neverBound = true, true
		} else if params != nil && i < len(params) && params[i].isInt() {
			v = avInt(params[i])
		}
		st.locals[i] = v
	}
	for j, slot := range code.CellLocals {
		st.cellUnbound[j] = slot >= code.NumParams
	}
	return st
}

// runAbs interprets one code object to a fixpoint (with widening), then
// narrows, then does one recording pass collecting the facts.
func runAbs(g *Graph, env *absEnv, params []ival) *absRun {
	code := g.Code
	r := &absRun{
		code:    code,
		params:  params,
		claims:  map[int]ival{},
		calls:   map[int]callFact{},
		escaped: map[string]bool{},
		trips:   map[int]ival{},
		// returnIv starts ⊥ and joins every OpReturn's value.
		returnIv: ivBottom,
	}
	esc := func(fn string) { r.escaped[fn] = true }

	nb := len(g.Blocks)
	in := make([]*astate, nb)
	visits := make([]int, nb)
	entry := g.RPO[0]
	in[entry] = entryState(code, params)

	const widenAfter = 4
	var worklist []int
	inList := make([]bool, nb)
	push := func(b int) {
		if !inList[b] {
			inList[b] = true
			worklist = append(worklist, b)
		}
	}
	push(entry)

	propagate := func(target int, st *astate) {
		if in[target] == nil {
			in[target] = st.clone()
			visits[target]++
			push(target)
			return
		}
		if in[target].joinInto(st, visits[target] >= widenAfter, esc) {
			visits[target]++
			push(target)
		}
	}

	for len(worklist) > 0 {
		b := worklist[0]
		worklist = worklist[1:]
		inList[b] = false
		st := in[b].clone()
		r.transferBlock(g, env, b, st, false, propagate)
	}

	// Narrowing: two decreasing sweeps from the post-widening fixpoint.
	// Each sweep computes F(in) with every block transferred from the OLD
	// converged state (Jacobi iteration): since in ⊒ F(in) ⊒ lfp(F) after
	// the ascending phase, replacing in with F(in) recovers precision the
	// widening threw away while staying sound. Transferring from the
	// partially-updated new states instead would drop back-edge
	// contributions at loop headers — analyzing the loop as if it ran
	// once — which the soundness property tests catch immediately.
	for sweep := 0; sweep < 2; sweep++ {
		next := make([]*astate, nb)
		next[entry] = entryState(code, params)
		collect := func(target int, st *astate) {
			if next[target] == nil {
				next[target] = st.clone()
			} else {
				next[target].joinInto(st, false, esc)
			}
		}
		for _, b := range g.RPO {
			if in[b] == nil {
				continue
			}
			r.transferBlock(g, env, b, in[b].clone(), false, collect)
		}
		for b := range next {
			if next[b] != nil {
				in[b] = next[b]
			}
		}
	}

	// Recording pass over the converged states.
	for _, b := range g.RPO {
		if in[b] == nil {
			continue
		}
		r.transferBlock(g, env, b, in[b].clone(), true, func(int, *astate) {})
	}
	if r.returnIv.k == ivBot {
		r.returnIv = ivTop
	}
	return r
}

// transferBlock interprets one basic block from state st and feeds each
// successor's entry state to emit. record enables fact collection (final
// pass only).
func (r *absRun) transferBlock(g *Graph, env *absEnv, bid int, st *astate,
	record bool, emit func(target int, st *astate)) {
	code := g.Code
	b := g.Blocks[bid]
	last := b.End - 1
	ins := code.Ops[last]
	bodyEnd := b.End
	if ins.Op.EndsBlock() {
		bodyEnd = last
	}
	if record {
		r.reachable += b.End - b.Start
	}
	for pc := b.Start; pc < bodyEnd; pc++ {
		r.step(env, st, pc, record)
	}
	if bodyEnd == b.End {
		// Fallthrough block: no terminator, single successor.
		emit(g.BlockOf[b.End], st)
		return
	}

	popN := func(s *astate, n int) {
		if n > len(s.stack) {
			n = len(s.stack)
		}
		s.stack = s.stack[:len(s.stack)-n]
	}
	top := func(s *astate) absv {
		if len(s.stack) == 0 {
			return avTop
		}
		return s.stack[len(s.stack)-1]
	}
	// A terminator is typed when the value it tests or returns has a
	// known class; a plain jump tests nothing.
	if record && (ins.Op == minipy.OpJump || len(st.stack) > 0 && top(st).cls != cAny) {
		r.typed++
	}

	// jump and fall are the states the terminator leaves on its jump and
	// fall-through edges.
	jump, fall := st, st
	switch ins.Op {
	case minipy.OpReturn:
		v := top(st)
		if record {
			r.returnIv = ivJoin(r.returnIv, v.iv)
			if k := v.kind(); v.mayFresh && (heapClass(k) || k == cAny) {
				r.returnMayFresh = true
			}
			r.consume(v)
		}
	case minipy.OpJumpIfFalse, minipy.OpJumpIfTrue:
		popN(st, 1)
	case minipy.OpJumpIfFalseKeep, minipy.OpJumpIfTrueKeep:
		// Jump path keeps the value; fall path pops it.
		fall = st.clone()
		popN(fall, 1)
	case minipy.OpForIter:
		iter := top(st)
		if record {
			old, ok := r.trips[last]
			if !ok {
				old = ivBottom
			}
			r.trips[last] = ivJoin(old, iter.length)
		}
		// The exit path pops the iterator; the loop path pushes the element.
		jump = st.clone()
		popN(jump, 1)
		fall = st.clone()
		el := avTop
		if iter.elem.isInt() {
			el = avInt(iter.elem)
		}
		el.cls = cAny
		if iter.cls == cIter {
			el.cls = iter.elemCls
		}
		fall.stack = append(fall.stack, el)
	case minipy.OpBinaryJumpIfFalse:
		if record && isDivOrMod(minipy.BinOpCode(ins.Arg&0xF)) {
			n := len(st.stack)
			if n >= 2 {
				r.noteDiv(st.stack[n-1])
			}
		}
		popN(st, 2)
	}
	// A block-ending op with successors branches, so its first successor
	// is the jump target and any second one the fall-through pc.
	succ, n := ins.Succs(last)
	for i, to := range succ[:n] {
		emit(g.BlockOf[to], [2]*astate{jump, fall}[i])
	}
}

func isDivOrMod(op minipy.BinOpCode) bool {
	return op == minipy.BinDiv || op == minipy.BinFloorDiv || op == minipy.BinMod
}

func isCompare(op minipy.BinOpCode) bool {
	switch op {
	case minipy.BinEq, minipy.BinNe, minipy.BinLt, minipy.BinLe, minipy.BinGt, minipy.BinGe:
		return true
	}
	return false
}

// noteDiv accounts one division/modulo site and whether the divisor is a
// proven non-zero int.
func (r *absRun) noteDiv(divisor absv) {
	r.divSites++
	if divisor.iv.excludesZero() {
		r.divSafe++
	}
}

// consume records the escape-relevant consequences of a value reaching an
// escape sink (stored beyond the frame, returned, passed to a call, built
// into a container).
func (r *absRun) consume(v absv) {
	if strings.HasPrefix(v.fn, "u:") {
		r.escaped[v.fn[2:]] = true
	}
	if v.closure {
		r.frameEscapes = true
	}
}

// claim records an interval claim for the value the op at pc leaves on top
// of the stack, when it is a proven int.
func (r *absRun) claim(pc int, v absv, record bool) {
	if record && v.iv.isInt() {
		r.claims[pc] = v.iv
	}
}

// diag records one lint finding at pc on the recording pass.
func (r *absRun) diag(record bool, pc int, sev Severity, rule, format string, args ...any) {
	if record {
		r.diags = append(r.diags, Diagnostic{
			Func: r.code.Name, PC: pc, Line: lineOf(r.code, pc),
			Severity: sev, Rule: rule, Msg: fmt.Sprintf(format, args...),
		})
	}
}

// typeError records a certain type error: the operand classes make the op
// raise on every execution that reaches it.
func (r *absRun) typeError(record bool, pc int, format string, args ...any) {
	r.diag(record, pc, ErrorSev, "type-error", format, args...)
}

// unassigned records a load of variable name, which may be unassigned: a
// use-before-def error when no path assigns it (never), else a
// possibly-unassigned warning, once per variable (key).
func (r *absRun) unassigned(record bool, pc int, name string, key int, never bool) {
	switch {
	case never:
		r.diag(record, pc, ErrorSev, "use-before-def", "variable %q is used before any assignment", name)
	case record && !r.unassignedWarned[key]:
		if r.unassignedWarned == nil {
			r.unassignedWarned = map[int]bool{}
		}
		r.unassignedWarned[key] = true
		r.diag(record, pc, Warning, "possibly-unassigned", "variable %q may be unassigned on some paths", name)
	}
}

// step interprets one non-terminator op, mutating st.
func (r *absRun) step(env *absEnv, st *astate, pc int, record bool) {
	code := r.code
	ins := code.Ops[pc]
	arg := int(ins.Arg)

	push := func(v absv) { st.stack = append(st.stack, v) }
	pop := func() absv {
		if len(st.stack) == 0 {
			return avTop
		}
		v := st.stack[len(st.stack)-1]
		st.stack = st.stack[:len(st.stack)-1]
		return v
	}
	raise := func() {
		if record {
			r.mayRaise = true
		}
	}
	// typed: every operand the op inspects has a known class.
	typed := true
	note := func(vs ...absv) {
		for _, v := range vs {
			if v.cls == cAny {
				typed = false
			}
		}
	}

	switch ins.Op {
	case minipy.OpNop:

	case minipy.OpLoadConst:
		v := constAbsv(code.Consts[arg])
		push(v)
		r.claim(pc, v, record)

	case minipy.OpLoadLocal, minipy.OpLoadLocalPair, minipy.OpLoadLocalConst:
		slots, n := ins.Locals()
		var v absv
		for _, slot := range slots[:n] {
			v = st.locals[slot]
			note(v)
			if v.unbound {
				raise()
				r.unassigned(record, pc, code.LocalNames[slot], slot, v.neverBound)
			}
			v.unbound, v.neverBound = false, false
			push(v)
		}
		if ins.Op == minipy.OpLoadLocalConst {
			v = constAbsv(code.Consts[arg>>12])
			push(v)
		}
		r.claim(pc, v, record)

	case minipy.OpStoreLocal:
		st.locals[arg] = pop()

	case minipy.OpLoadGlobal:
		v := r.loadGlobal(env, pc, code.Names[arg], record)
		note(v)
		push(v)
		r.claim(pc, v, record)

	case minipy.OpStoreGlobal:
		v := pop()
		name := code.Names[arg]
		// The def-site store of a bound function is the binding itself,
		// not an escape.
		if record && v.fn != "u:"+name {
			r.consume(v)
		}
		env.storeGlobal(name, v)

	case minipy.OpLoadCell:
		// Cells are shared with closures: any call can rebind a cell
		// behind this frame's back, so a cell read is always ⊤.
		note(avTop)
		raise() // a cell may be observably unassigned; stay conservative
		if arg < len(st.cellUnbound) && st.cellUnbound[arg] {
			r.unassigned(record, pc, code.LocalNames[code.CellLocals[arg]], ^arg, false)
		}
		push(avTop)

	case minipy.OpStoreCell:
		if v := pop(); record {
			r.consume(v) // cells are shared with closures: treat as escape
		}
		if arg < len(st.cellUnbound) {
			st.cellUnbound[arg] = false
		}

	case minipy.OpPushCell:
		push(avTop)

	case minipy.OpLoadAttr:
		target := pop()
		note(target)
		push(r.loadAttr(target, pc, code.Names[arg], record))

	case minipy.OpStoreAttr:
		// Value on top, target below.
		v := pop()
		target := pop()
		note(target)
		if classIn(target.cls, cInt, cFloat, cBool, cNone, cStr,
			cList, cDict, cTuple, cRange, cFunc) {
			r.typeError(record, pc, "'%s' object does not support attribute assignment", target.cls)
		}
		if record {
			r.consume(v)
			if !target.mustFresh {
				r.mutatesNonFresh = true
			}
		}
		if target.kind() != cInst {
			raise()
		}

	case minipy.OpBinary:
		b := pop()
		a := pop()
		note(a, b)
		bop := minipy.BinOpCode(ins.Arg)
		v := r.binaryAbs(bop, a, b, record)
		v.cls = r.binaryClass(bop, a.cls, b.cls, pc, record)
		push(v)
		r.claim(pc, v, record)

	case minipy.OpUnary:
		a := pop()
		note(a)
		v := r.unary(minipy.UnOpCode(ins.Arg), a, pc, record)
		push(v)
		r.claim(pc, v, record)

	case minipy.OpCall:
		if n := len(st.stack); n > arg {
			note(st.stack[n-arg-1])
		}
		r.callAbs(env, st, pc, arg, record)

	case minipy.OpPop:
		pop()

	case minipy.OpDup:
		v := pop()
		push(v)
		push(v)

	case minipy.OpDup2:
		b := pop()
		a := pop()
		push(a)
		push(b)
		push(a)
		push(b)

	case minipy.OpBuildList, minipy.OpBuildTuple:
		for i := 0; i < arg; i++ {
			v := pop()
			if record {
				r.consume(v)
			}
		}
		if ins.Op == minipy.OpBuildList {
			push(avFreshHeap(cList))
		} else {
			push(avFreshHeap(cTuple))
		}

	case minipy.OpBuildDict:
		for i := 0; i < 2*arg; i++ {
			v := pop()
			if record {
				r.consume(v)
			}
		}
		push(avFreshHeap(cDict))

	case minipy.OpBuildClass:
		for i := 0; i < 2*arg+2; i++ {
			v := pop()
			if record {
				r.consume(v)
			}
		}
		raise()
		push(avFreshHeap(cClass))

	case minipy.OpIndexGet:
		idx := pop()
		target := pop()
		note(target, idx)
		if classIn(target.cls, cInt, cFloat, cBool, cNone) {
			r.typeError(record, pc, "'%s' object is not subscriptable", target.cls)
		} else if classIn(target.cls, cList, cTuple, cStr) &&
			classIn(idx.cls, cStr, cNone, cList, cDict, cTuple, cFloat) {
			r.typeError(record, pc, "indices must be integers, not %s", idx.cls)
		}
		raise()
		v := avTop
		if target.cls == cStr {
			v = avScalar(cStr)
		}
		push(v)

	case minipy.OpIndexSet:
		v := pop()
		pop()
		target := pop()
		note(target)
		if classIn(target.cls, cInt, cFloat, cBool, cNone, cStr, cTuple, cRange) {
			r.typeError(record, pc, "'%s' object does not support item assignment", target.cls)
		}
		if record {
			r.consume(v)
			if !target.mustFresh {
				r.mutatesNonFresh = true
			}
		}
		raise()

	case minipy.OpSliceGet:
		pop()
		pop()
		target := pop()
		note(target)
		if classIn(target.cls, cInt, cFloat, cBool, cNone) {
			r.typeError(record, pc, "'%s' object is not sliceable", target.cls)
		}
		raise()
		switch target.cls {
		case cList:
			push(avFreshHeap(cList))
		case cStr:
			push(avScalar(cStr))
		case cTuple:
			push(avFreshHeap(cTuple))
		default:
			push(avTop)
		}

	case minipy.OpDelIndex:
		pop()
		target := pop()
		note(target)
		if classIn(target.cls, cInt, cFloat, cBool, cNone, cStr, cTuple, cRange) {
			r.typeError(record, pc, "'%s' object does not support item deletion", target.cls)
		}
		if record && !target.mustFresh {
			r.mutatesNonFresh = true
		}
		raise()

	case minipy.OpGetIter:
		target := pop()
		note(target)
		if classIn(target.cls, cInt, cFloat, cBool, cNone) {
			r.typeError(record, pc, "'%s' object is not iterable", target.cls)
		}
		it := absv{iv: ivTop, cls: cIter, elem: ivTop, length: ivTop, mayFresh: true}
		switch target.cls {
		case cRange:
			it.elemCls = cInt
		case cStr:
			it.elemCls = cStr
		}
		switch target.kind() {
		case cRange:
			it.elem = target.elem
			it.length = target.length
		case cList, cTuple, cDict, cStr:
			// Finite container: element/length unknown, termination known.
		default:
			raise()
		}
		push(it)

	case minipy.OpMakeFunction:
		sub := code.Consts[arg].(*minipy.Code)
		for i := 0; i < len(sub.FreeNames); i++ {
			pop()
		}
		v := absv{iv: ivTop, cls: cFunc, mayFresh: true, elem: ivTop, length: ivTop}
		if len(sub.FreeNames) > 0 {
			v.closure = true
		}
		if sites := env.bindSites[code]; sites != nil {
			if name, ok := sites[pc]; ok {
				v.fn = "u:" + name
			}
		}
		push(v)

	case minipy.OpUnpack:
		src := pop()
		note(src)
		if classIn(src.cls, cInt, cFloat, cBool, cNone) {
			r.typeError(record, pc, "cannot unpack non-sequence '%s'", src.cls)
		}
		raise()
		el := avTop
		if src.kind() == cRange && src.elem.isInt() {
			el = avInt(src.elem)
		}
		el.cls = cAny
		if src.cls == cStr {
			el.cls = cStr
		}
		for i := 0; i < arg; i++ {
			push(el)
		}

	default:
		// Unknown op: clobber everything reachable and stay sound.
		raise()
		for i := range st.stack {
			st.stack[i] = avTop
		}
		for i := range st.locals {
			st.locals[i] = avTop
		}
	}
	if record && typed {
		r.typed++
	}
}

func negInterval(a ival, op minipy.UnOpCode) ival {
	if op == minipy.UnPos {
		return a
	}
	if a.lo == math.MinInt64 {
		return ivFullInt
	}
	return ival{k: ivInt, lo: -a.hi, hi: -a.lo}
}

// loadGlobal abstracts a LOAD_GLOBAL result from the module environment:
// stable bindings and single-store constants are exact, any other module
// global has the class the module stores to it, and a name that is
// neither module-defined nor a builtin draws one unresolved-global warning
// per function.
func (r *absRun) loadGlobal(env *absEnv, pc int, name string, record bool) absv {
	if _, ok := env.bindings[name]; ok {
		return absv{iv: ivTop, cls: cFunc, fn: "u:" + name, elem: ivTop, length: ivTop}
	}
	if v, ok := env.consts[name]; ok {
		return v
	}
	if env.defined[name] {
		// Multi-store or nested-store global: resolvable, value unknown,
		// possibly allocated during the current activation.
		v := avTop
		if g, ok := env.globals[name]; ok {
			v.cls, v.elemCls, v.fn = g.cls, g.elemCls, g.fn
		}
		return v
	}
	if env.builtins[name] {
		if name == "pi" {
			return avScalar(cFloat)
		}
		return absv{iv: ivTop, cls: cFunc, fn: "b:" + name, elem: ivTop, length: ivTop}
	}
	if record {
		r.mayRaise = true // unresolved name: NameError at runtime
		if !r.warned[name] {
			if r.warned == nil {
				r.warned = map[string]bool{}
			}
			r.warned[name] = true
			r.diag(record, pc, Warning, "unresolved-global",
				"global %q is neither module-defined nor a builtin", name)
		}
	}
	return avTop
}

// loadAttr models vm/attr.go getAttr(): method lookups on the builtin
// container types resolve to bound methods, and an attribute the builtin
// value does not have is a certain AttributeError. Instance fields and
// class attributes are unknown.
func (r *absRun) loadAttr(target absv, pc int, name string, record bool) absv {
	var recv string
	switch target.cls {
	case cList:
		recv = "list"
	case cDict:
		recv = "dict"
	case cStr:
		recv = "str"
	case cInt, cFloat, cBool, cNone, cTuple, cRange:
		r.typeError(record, pc, "'%s' object has no attribute %q", target.cls, name)
	}
	if recv != "" {
		key := recv + "." + name
		if _, ok := methods[key]; ok {
			return absv{iv: ivTop, cls: cFunc, fn: "m:" + key,
				recvFresh: target.mustFresh, elem: ivTop, length: ivTop}
		}
		r.typeError(record, pc, "'%s' object has no attribute %q", recv, name)
	}
	if record {
		r.mayRaise = true
	}
	return avTop
}

// binaryAbs is the OpBinary transfer of the interval and freshness
// components.
func (r *absRun) binaryAbs(bop minipy.BinOpCode, a, b absv, record bool) absv {
	if record && isDivOrMod(bop) {
		r.noteDiv(b)
	}
	if isCompare(bop) {
		if record && !comparable(a, b) {
			r.mayRaise = true
		}
		return avScalar(cBool)
	}
	if iv, mayRaise, ok := ivBinary(bop, a.iv, b.iv); ok {
		if record && mayRaise {
			r.mayRaise = true
		}
		return avInt(iv)
	}
	// Non-int result: classify coarsely.
	ak, bk := a.kind(), b.kind()
	numeric := func(k vclass) bool { return k == cInt || k == cFloat }
	switch {
	case bop == minipy.BinAdd && ak == cList && bk == cList:
		return avFreshHeap(cList)
	case bop == minipy.BinAdd && ak == cStr && bk == cStr:
		return avScalar(cStr)
	case numeric(ak) && numeric(bk):
		if record && (isDivOrMod(bop) || bop == minipy.BinPow) {
			// Float division/modulo by zero and int**negative both raise.
			r.mayRaise = true
		}
		if ak == cFloat || bk == cFloat {
			return avScalar(cFloat)
		}
		if record {
			r.mayRaise = true
		}
		return avTop
	default:
		if record {
			r.mayRaise = true
		}
		return avTop
	}
}

// binaryClass is the OpBinary transfer of the class component, modelling
// vm/ops.go binary() and flagging operand classes that raise TypeError on
// every execution.
func (r *absRun) binaryClass(op minipy.BinOpCode, a, b vclass, pc int, record bool) vclass {
	switch op {
	case minipy.BinEq, minipy.BinNe, minipy.BinLt, minipy.BinLe,
		minipy.BinGt, minipy.BinGe:
		// Ordering mixed types raises at runtime, but values of unknown
		// class cannot be told apart here, so comparisons are never flagged.
		return cBool
	case minipy.BinIn:
		if classIn(b, cInt, cFloat, cBool, cNone) {
			r.typeError(record, pc, "argument of type '%s' is not iterable", b)
		}
		return cBool
	}
	// Arithmetic family. Bool coerces to Int first.
	if a == cBool {
		a = cInt
	}
	if b == cBool {
		b = cInt
	}
	switch {
	case classIn(a, cAny, cBot) || classIn(b, cAny, cBot):
		return cAny
	case numericClass(a) && numericClass(b):
		switch {
		case op == minipy.BinDiv, a == cFloat, b == cFloat:
			return cFloat
		case op == minipy.BinPow:
			return cAny // int ** negative-int is a float; signs are not tracked
		}
		return cInt
	case a == cStr:
		if op == minipy.BinAdd && b == cStr || op == minipy.BinMul && b == cInt {
			return cStr
		}
	case a == cInt && b == cStr && op == minipy.BinMul:
		return cStr
	case a == cList:
		if op == minipy.BinAdd && b == cList || op == minipy.BinMul && b == cInt {
			return cList
		}
	case a == cTuple && b == cTuple && op == minipy.BinAdd:
		return cTuple
	case classIn(a, cInst, cClass) || classIn(b, cInst, cClass):
		// Instances have no operator protocol in MiniPy, but stay silent:
		// flagging objects is where false positives would live if the VM
		// ever grows dunder dispatch.
		return cAny
	}
	r.typeError(record, pc, "unsupported operand type(s) for %s: '%s' and '%s'", op, a, b)
	return cAny
}

// unary is the OpUnary transfer function, modelling vm/ops.go unary().
func (r *absRun) unary(op minipy.UnOpCode, a absv, pc int, record bool) absv {
	if op == minipy.UnNot {
		return avScalar(cBool)
	}
	if op != minipy.UnNeg && op != minipy.UnPos {
		if record {
			r.mayRaise = true
		}
		return avTop
	}
	v := avTop
	switch k := a.kind(); {
	case a.iv.isInt():
		v = avInt(negInterval(a.iv, op))
	case k == cFloat:
		v = avScalar(cFloat)
	case k != cInt && k != cBool:
		if record {
			r.mayRaise = true
		}
	}
	switch a.cls {
	case cInt, cBool:
		v.cls = cInt
	case cFloat:
		v.cls = cFloat
	case cStr, cNone, cList, cDict, cTuple, cRange, cFunc:
		sym := "-"
		if op == minipy.UnPos {
			sym = "+"
		}
		r.typeError(record, pc, "bad operand type for unary %s: '%s'", sym, a.cls)
		v.cls = cAny
	default:
		v.cls = cAny
	}
	return v
}

// comparable reports whether a comparison between the two abstract values
// is statically known not to raise.
func comparable(a, b absv) bool {
	ak, bk := a.kind(), b.kind()
	if numericClass(ak) && numericClass(bk) {
		return true
	}
	return ak == bk && ak != cAny && ak != cInst && ak != cClass
}

// callAbs models OpCall: resolves the callee from its provenance, records
// call-graph edges and fold candidates, classifies effects, and flags a
// call of a value whose class is certainly not callable.
func (r *absRun) callAbs(env *absEnv, st *astate, pc, argc int, record bool) {
	n := len(st.stack)
	if n < argc+1 {
		st.stack = st.stack[:0]
		st.stack = append(st.stack, avTop)
		if record {
			r.mayRaise = true
			r.callsUnknown = true
		}
		return
	}
	calleeIdx := n - argc - 1
	callee := st.stack[calleeIdx]
	args := append([]absv(nil), st.stack[calleeIdx+1:]...)
	st.stack = st.stack[:calleeIdx]

	if record {
		for _, a := range args {
			r.consume(a) // a callee may store any argument anywhere
		}
	}

	res := avTop
	switch {
	case strings.HasPrefix(callee.fn, "u:"):
		name := callee.fn[2:]
		sub := env.bindings[name]
		if sub != nil && argc == sub.NumParams {
			if record {
				ivs := make([]ival, len(args))
				for i, a := range args {
					ivs[i] = a.iv
				}
				r.calls[pc] = callFact{name: name, argc: argc, args: ivs}
			}
			if ret, ok := env.retIv[name]; ok && ret.isInt() {
				res = avInt(ret)
			}
			res.mayFresh = !env.retNotFresh[name]
		} else if record {
			// Arity mismatch (or unknown binding): raises before the callee
			// body runs, so no callee effects to account.
			r.mayRaise = true
		}
	case strings.HasPrefix(callee.fn, "b:"):
		name := callee.fn[2:]
		res = builtinCall(name, args)
		if record {
			r.mayRaise = true // builtins validate arity/types at runtime
			if env.io[name] {
				r.usesIO = true
			}
		}
	case strings.HasPrefix(callee.fn, "m:"):
		res = r.methodCall(callee, record)
	default:
		if record {
			r.callsUnknown = true
			r.mayRaise = true
		}
	}
	// The result class: a builtin's or method's from the table, an
	// instance for a class, unknown for anything else.
	switch callee.cls {
	case cFunc:
		if !strings.HasPrefix(callee.fn, "b:") && !strings.HasPrefix(callee.fn, "m:") {
			res.cls = cAny
		}
	case cClass:
		res.cls = cInst
	case cAny, cBot, cInst:
		// Instances are not callable today, but a __call__ protocol is
		// plausible; stay silent like the binary-op case.
		res.cls = cAny
	default:
		r.typeError(record, pc, "'%s' object is not callable", callee.cls)
		res.cls = cAny
	}
	st.stack = append(st.stack, res)
	r.claim(pc, res, record)
}

// result describes what a builtin or a bound builtin method returns,
// mirroring vm/builtins.go and vm/attr.go: the class, the interval of an
// int result, whether it is a newly allocated container, and whether a
// method mutates its receiver.
type result struct {
	cls     vclass
	iv      ival
	fresh   bool
	mutates bool
}

// value is the abstract value a call returning res produces.
func (res result) value() absv {
	switch {
	case res.fresh:
		return avFreshHeap(res.cls)
	case res.cls == cInt:
		return avInt(res.iv)
	case res.cls == cAny:
		return avTop
	}
	return avScalar(res.cls)
}

// builtins and methods are the one table of builtin and method results.
// A builtin absent from it (min, max, sum, pow, abs) returns a class that
// depends on its argument types; builtinCall derives the intervals of
// range, abs, min and max from the arguments.
var (
	builtins = map[string]result{
		"len":   {cls: cInt, iv: ivRange(0, math.MaxInt64)},
		"ord":   {cls: cInt, iv: ivRange(0, 0x10FFFF)},
		"int":   {cls: cInt, iv: ivFullInt},
		"floor": {cls: cInt, iv: ivFullInt},
		"ceil":  {cls: cInt, iv: ivFullInt},
		"hash":  {cls: cInt, iv: ivFullInt},
		"str":   {cls: cStr}, "repr": {cls: cStr}, "chr": {cls: cStr}, "type_name": {cls: cStr},
		"float": {cls: cFloat}, "sqrt": {cls: cFloat}, "sin": {cls: cFloat},
		"cos": {cls: cFloat}, "tan": {cls: cFloat}, "exp": {cls: cFloat},
		"log": {cls: cFloat}, "atan2": {cls: cFloat},
		"bool": {cls: cBool}, "isinstance": {cls: cBool},
		"list": {cls: cList, fresh: true}, "sorted": {cls: cList, fresh: true},
		"tuple": {cls: cTuple, fresh: true}, "dict": {cls: cDict, fresh: true},
		"range": {cls: cRange}, "print": {cls: cNone},
	}
	methods = map[string]result{
		"list.append":  {cls: cNone, mutates: true},
		"list.extend":  {cls: cNone, mutates: true},
		"list.insert":  {cls: cNone, mutates: true},
		"list.remove":  {cls: cNone, mutates: true},
		"list.reverse": {cls: cNone, mutates: true},
		"list.sort":    {cls: cNone, mutates: true},
		"list.pop":     {cls: cAny, mutates: true},
		"list.index":   {cls: cInt, iv: ivFullInt},
		"list.count":   {cls: cInt, iv: ivFullInt},
		"dict.get":     {cls: cAny},
		"dict.pop":     {cls: cAny, mutates: true},
		"dict.keys":    {cls: cList, fresh: true},
		"dict.values":  {cls: cList, fresh: true},
		"dict.items":   {cls: cList, fresh: true},
		"str.split":    {cls: cList, fresh: true},
		"str.join":     {cls: cStr}, "str.upper": {cls: cStr}, "str.lower": {cls: cStr},
		"str.strip": {cls: cStr}, "str.replace": {cls: cStr},
		"str.find":       {cls: cInt, iv: ivFullInt},
		"str.startswith": {cls: cBool}, "str.endswith": {cls: cBool},
	}
)

// builtinCall models a deterministic builtin's return value.
func builtinCall(name string, args []absv) absv {
	v := builtins[name].value()
	switch name {
	case "range":
		return rangeAbs(args)
	case "abs":
		if len(args) == 1 && args[0].iv.isInt() {
			a := args[0].iv
			v.iv, v.mayFresh = ivFullInt, false
			if a.lo != math.MinInt64 {
				lo := int64(0)
				if a.lo > 0 {
					lo = a.lo
				} else if a.hi < 0 {
					lo = -a.hi
				}
				v.iv = ivRange(lo, max64(abs64(a.lo), abs64(a.hi)))
			}
		}
	case "min", "max":
		out := ivBottom
		for _, a := range args {
			if !a.iv.isInt() {
				return v
			}
			out = ivJoin(out, a.iv)
		}
		if out.isInt() {
			v.iv, v.mayFresh = out, false
		}
	}
	return v
}

func abs64(v int64) int64 {
	if v == math.MinInt64 {
		return math.MaxInt64
	}
	if v < 0 {
		return -v
	}
	return v
}

// rangeAbs models range(): element interval and iteration count.
func rangeAbs(args []absv) absv {
	out := avScalar(cRange)
	var start, stop, step ival
	switch len(args) {
	case 1:
		start, stop, step = ivConst(0), args[0].iv, ivConst(1)
	case 2:
		start, stop, step = args[0].iv, args[1].iv, ivConst(1)
	case 3:
		start, stop, step = args[0].iv, args[1].iv, args[2].iv
	default:
		return out
	}
	if !start.isInt() || !stop.isInt() {
		return out
	}
	switch {
	case step.isConst() && step.lo > 0:
		if stop.hi <= start.lo {
			out.elem = ivBottom // loop body never runs
			out.length = ivConst(0)
			return out
		}
		out.elem = ivRange(start.lo, stop.hi-1)
		if span, ok := subOv(stop.hi, start.lo); ok {
			out.length = ivRange(0, (span+step.lo-1)/step.lo)
		} else {
			out.length = ivRange(0, math.MaxInt64)
		}
	case step.isConst() && step.lo < 0:
		if stop.lo >= start.hi {
			out.elem = ivBottom
			out.length = ivConst(0)
			return out
		}
		out.elem = ivRange(stop.lo+1, start.hi)
		if span, ok := subOv(start.hi, stop.lo); ok {
			out.length = ivRange(0, (span+(-step.lo)-1)/(-step.lo))
		} else {
			out.length = ivRange(0, math.MaxInt64)
		}
	default:
		// Unknown step: elements stay inside the hull of the endpoints,
		// but the count is unknown (and step=0 raises at runtime).
		out.elem = ivJoin(start, stop)
		out.length = ivTop
	}
	return out
}

// methodCall models bound builtin-method calls, accounting receiver
// mutation when the receiver is not provably fresh.
func (r *absRun) methodCall(callee absv, record bool) absv {
	m := methods[callee.fn[2:]]
	if record {
		if m.mutates && !callee.recvFresh {
			r.mutatesNonFresh = true
		}
		r.mayRaise = true
	}
	return m.value()
}
