package vm

import (
	"context"
	"fmt"

	"repro/internal/minipy"
)

// This file is the execution engine. Stack bytecode — the compiler's IR and
// the cost model's key — is lowered 1:1 to three-address register form
// (minipy.LowerToRegister), values live in tagged word-sized register slots
// (rval.go), and hot sites quicken in place after observing a monomorphic
// operand shape. The lowering preserves pcs, cost keys (RInstr.Src), and
// immediates (RInstr.Arg), so every simulated counter, probe event, and
// tracer record is a function of the stack program alone. The committed
// goldens (harness testdata/oracle.golden, vm testdata/random_programs.golden)
// were generated by the stack interpreter this engine replaced and pin
// those streams byte for byte.

// lower lowers code to the register stream s and register-verifies it,
// or records the error that lowering or verification returned. The Interp
// owns the stream, so quickening rewrites it in place: no other Interp can
// see it, and a fresh Interp always starts from the unquickened lowering.
func (st *codeState) lower(code *minipy.Code, s stream) {
	var err error
	st.rc, err = minipy.LowerToRegister(code)
	if err == nil {
		if s != streamPlain {
			minipy.ElideMoves(&st.rc)
		}
		if s == streamA9 {
			// A9 charges only the instructions it executes.
			for i := range st.rc.Ops {
				st.rc.Ops[i].Pre, st.rc.Ops[i].Post = 0, 0
			}
		}
		// Trust-but-verify: a lowering bug must surface as an error,
		// never execute unchecked.
		err = minipy.VerifyRegister(&st.rc)
	}
	if err != nil {
		st.rc = minipy.RCode{}
		st.err = fmt.Errorf("vm: cannot run code object %s: %w", code.Name, err)
		return
	}
	if len(code.Consts) > 0 {
		st.rconsts = make([]rslot, len(code.Consts))
		for i, c := range code.Consts {
			st.rconsts[i] = runbox(c)
		}
	}
}

// callFunctionReg invokes a *Function in the register tier with args
// already in tagged form — the RopCall fast path, which never boxes scalar
// arguments. Arity errors surface before the depth guard, matching call().
func (in *Interp) callFunctionReg(fn *minipy.Function, args []rslot) (rslot, error) {
	code := fn.Code
	if len(args) != code.NumParams {
		return rslot{}, typeErr("%s() takes %d arguments (%d given)",
			code.Name, code.NumParams, len(args))
	}
	st, err := in.state(code)
	if err != nil {
		return rslot{}, err
	}
	regs := in.getRegs(st.rc.NumRegs)
	copy(regs, args)
	var cells []*minipy.Cell
	if n := code.NumCells(); n > 0 {
		cells = make([]*minipy.Cell, n)
		for i, slot := range code.CellLocals {
			cells[i] = &minipy.Cell{V: rbox(&regs[slot])}
		}
		copy(cells[len(code.CellLocals):], fn.Free)
	}
	ret, err := in.enterFrame(code, st, regs, cells)
	in.putRegs(regs)
	return ret, err
}

// callFunctionRegBoxed is the boxed-argument entry into the register tier,
// used by call() for external CallGlobal entries and for callables invoked
// from builtins.
func (in *Interp) callFunctionRegBoxed(fn *minipy.Function, args []minipy.Value) (minipy.Value, error) {
	code := fn.Code
	if len(args) != code.NumParams {
		return nil, typeErr("%s() takes %d arguments (%d given)",
			code.Name, code.NumParams, len(args))
	}
	st, err := in.state(code)
	if err != nil {
		return nil, err
	}
	regs := in.getRegs(st.rc.NumRegs)
	for i, a := range args {
		regs[i] = runbox(a)
	}
	var cells []*minipy.Cell
	if n := code.NumCells(); n > 0 {
		cells = make([]*minipy.Cell, n)
		for i, slot := range code.CellLocals {
			cells[i] = &minipy.Cell{V: rbox(&regs[slot])}
		}
		copy(cells[len(code.CellLocals):], fn.Free)
	}
	ret, err := in.enterFrame(code, st, regs, cells)
	in.putRegs(regs)
	return rbox(&ret), err
}

// callBoundReg prepends the receiver and dispatches a bound-method call
// through the register fast path.
func (in *Interp) callBoundReg(bm *minipy.BoundMethod, args []rslot) (rslot, error) {
	buf := in.getRegs(len(args) + 1)
	buf[0] = runbox(bm.Recv)
	copy(buf[1:], args)
	ret, err := in.callFunctionReg(bm.Fn, buf)
	in.putRegs(buf)
	return ret, err
}

// enterFrame executes one register-tier activation: depth guard, tracer
// frame events, then the dispatch loop. The register file is owned (pooled)
// by the caller.
func (in *Interp) enterFrame(code *minipy.Code, st *codeState,
	regs []rslot, cells []*minipy.Cell) (rslot, error) {
	in.depth++
	if in.depth > in.maxDepth {
		in.depth--
		return rslot{}, &RuntimeError{Kind: "RecursionError", Msg: "maximum recursion depth exceeded"}
	}
	defer func() { in.depth-- }()
	if in.tracer != nil {
		in.tracer.OnEnter(code)
		defer in.tracer.OnExit(code)
	}
	return in.regLoop(code, st, regs, cells)
}

// intBinFast computes the inline int ⊙ int subset into dst, reporting
// whether the pair was handled. The subset keeps sign guards on
// floor-division and modulo, so the produced values are identical to
// in.binary's; unhandled shapes (true division, power, negative
// floordiv/mod, containment) take the generic path. int64 overflow wraps,
// matching minipy.Int.
// benchlint:hotpath
func intBinFast(dst *rslot, bop minipy.BinOpCode, x, y int64) bool {
	switch bop {
	case minipy.BinAdd:
		rsetInt(dst, x+y)
	case minipy.BinSub:
		rsetInt(dst, x-y)
	case minipy.BinMul:
		rsetInt(dst, x*y)
	case minipy.BinFloorDiv:
		if x < 0 || y <= 0 {
			return false
		}
		rsetInt(dst, x/y)
	case minipy.BinMod:
		if x < 0 || y <= 0 {
			return false
		}
		rsetInt(dst, x%y)
	case minipy.BinLt:
		rsetBool(dst, x < y)
	case minipy.BinGt:
		rsetBool(dst, x > y)
	case minipy.BinLe:
		rsetBool(dst, x <= y)
	case minipy.BinGe:
		rsetBool(dst, x >= y)
	case minipy.BinEq:
		rsetBool(dst, x == y)
	case minipy.BinNe:
		rsetBool(dst, x != y)
	default:
		return false
	}
	return true
}

// floatBinFast computes the inline float ⊙ float subset into dst. The
// arithmetic ops mirror floatBinary exactly; the comparisons mirror the
// ValueLess/ValueEqual routes in binary() — note Le is !(y<x) and Ge is
// !(x<y), which is what the generic path computes (identical for ordered
// operands AND for NaN). Division and modulo keep their zero checks in the
// generic path and are never fast-pathed.
// benchlint:hotpath
func floatBinFast(dst *rslot, bop minipy.BinOpCode, x, y float64) bool {
	switch bop {
	case minipy.BinAdd:
		rsetFloat(dst, x+y)
	case minipy.BinSub:
		rsetFloat(dst, x-y)
	case minipy.BinMul:
		rsetFloat(dst, x*y)
	case minipy.BinLt:
		rsetBool(dst, x < y)
	case minipy.BinGt:
		rsetBool(dst, y < x)
	case minipy.BinLe:
		rsetBool(dst, !(y < x))
	case minipy.BinGe:
		rsetBool(dst, !(x < y))
	case minipy.BinEq:
		rsetBool(dst, x == y)
	case minipy.BinNe:
		rsetBool(dst, x != y)
	default:
		return false
	}
	return true
}

// regBinaryGeneric boxes the operands and routes through the shared binary
// helper: the path for every shape the fast paths decline.
func (in *Interp) regBinaryGeneric(bop minipy.BinOpCode, a, b, dst *rslot) error {
	v, err := in.binary(bop, rbox(a), rbox(b))
	if err != nil {
		return err
	}
	rsetVal(dst, v)
	return nil
}

// regIndexGet is the RopIndexGet fast path for a tagged integer (or bool)
// index into a List, Tuple, or Str: the index stays an unboxed word instead
// of round-tripping through minipy.IntValue solely for seqIndex to unbox it
// again. Returns handled=false for every other target/index shape — the
// caller then falls back to the generic boxed indexGet. The simulated
// stream is identical to indexGet's: same memAccess address and order
// (none for Str), same error identities from seqIndexInt.
// benchlint:hotpath
func (in *Interp) regIndexGet(a, b, dst *rslot) (bool, error) {
	if a.tag != tagRef || (b.tag != tagInt && b.tag != tagBool) {
		return false, nil
	}
	switch t := a.ref.(type) {
	case *minipy.List:
		i, err := seqIndexInt(b.num, len(t.Items))
		if err != nil {
			return true, err
		}
		in.memAccess(t.Addr+uint64(i)*8, false)
		rsetVal(dst, t.Items[i])
		return true, nil
	case *minipy.Tuple:
		i, err := seqIndexInt(b.num, len(t.Items))
		if err != nil {
			return true, err
		}
		in.memAccess(t.Addr+uint64(i)*8, false)
		rsetVal(dst, t.Items[i])
		return true, nil
	case minipy.Str:
		i, err := seqIndexInt(b.num, len(t))
		if err != nil {
			return true, err
		}
		rsetVal(dst, minipy.Str1Value(t[i]))
		return true, nil
	}
	return false, nil
}

// regLoop is the dispatch loop: every simulated instruction passes through
// here, so it must stay free of allocation-prone stdlib calls. Every
// pc-keyed side structure (ic, attr cache, JIT mask, branch sites, line
// attribution) is indexed by RInstr.Orig — the source stack pc — and each
// dispatch adds the precomputed charge of every source op the instruction
// covers (codeState.charge) and one step per covered op, so the simulated
// stream is the stack program's on the plain and on the move-elided
// stream alike (DESIGN §16).
//
// The step and instruction counts are accumulated in local variables so
// the hot path runs register-to-register. Stalls and JIT pauses go straight
// to the Interp, and cycles are their sum with the instructions
// (CountersSnapshot), so only the two locals need syncing: they are written
// back before a nested frame runs (a call of a Function, BoundMethod or
// Class), before a Tracer or ValueTracer hook and at stop, and read back
// only after a nested frame, the one callee that reads and writes them.
// Counter values at each observation point are therefore those of the
// unhoisted form: a nested call does not see the elided store after it,
// and a raising instruction is not charged for it.
//
// The step budget and the abort poll share one test per dispatch against
// limit. A dispatch that crosses the budget counts exactly the covered ops
// that fit, as the plain stream would, and its error names the line of the
// first op that does not; the poll runs once the step count crosses a
// multiple of abortPollInterval, however many steps a dispatch adds.
// benchlint:hotpath
func (in *Interp) regLoop(code *minipy.Code, st *codeState,
	regs []rslot, cells []*minipy.Cell) (rslot, error) {
	var (
		ret      rslot
		errv     error
		pc       int
		ins      minipy.RInstr
		rc       = &st.rc
		ops      = rc.Ops // this Interp's own stream, quickened in place
		charge   = st.charge
		rconsts  = st.rconsts
		names    = code.Names
		L        = rc.NumLocals
		probe    = in.probe
		tracer   = in.tracer
		vtracer  = in.vtracer
		jit      = in.jit
		sites    = st.jit // per-pc JIT bookkeeping; nil outside ModeJIT
		cancel   = in.cancel
		maxSteps = in.maxSteps
		gcache   = st.globals
		acache   = st.attrs
		// Hoisted simulated counters (see above).
		steps     = in.steps
		instrsTot = in.instrs
		limit     = in.stepLimit(steps)
		frameBase = uint64(0x8000) + uint64(in.depth)*512
	)

	// Boxed shadow stack, materialized per op only for ValueTracer
	// observers (the soundness checker); nil tracers pay nothing.
	var vstack []minipy.Value
	if vtracer != nil {
		vstack = make([]minipy.Value, 0, rc.NumRegs-L)
	}

	for {
		ins = ops[pc]
		opc := int(ins.Orig)
		steps += 1 + uint64(ins.Pre) + uint64(ins.Post)
		if steps > limit {
			if steps > maxSteps {
				// The budget ends inside this dispatch. fit covered ops
				// fit under it: charge them, in source order, and stop at
				// the next. When the kept op itself fits, only its elided
				// store does not: run the op without the store, so the
				// next dispatch (or the nested call's first) stops with the
				// counters the plain stream stops with. Unless the op
				// raises or its callee runs out first, that stop names the
				// store, which errv holds until then.
				fit := maxSteps - (steps - 1 - uint64(ins.Pre) - uint64(ins.Post))
				if fit <= uint64(ins.Pre) {
					first := opc - int(ins.Pre)
					steps, instrsTot = maxSteps+1, instrsTot+in.chargeRange(st, first, first+int(fit))
					if errv == nil {
						errv = budgetErr(code.Lines[first+int(fit)])
					}
					goto stop
				}
				steps, instrsTot = maxSteps, instrsTot-in.chargeRange(st, opc+1, opc+1+int(ins.Post))
				ins.Post = 0
				errv = budgetErr(code.Lines[opc+1])
			}
			if cancel != nil {
				select {
				case <-cancel:
					errv = abortErr("%s", context.Cause(in.cfg.Context).Error())
					goto stop
				default:
				}
			}
			limit = in.stepLimit(steps)
		}
		op := ins.Src

		// ---- Cost accounting (precomputed per instruction) ----
		// Frames of one code object share its charges, so a trace compiled
		// in a recursive activation is charged here on the next op.
		instrs := charge[pc]
		if instrs >= icWarming {
			instrs = in.warm(st, pc)
		}
		instrsTot += instrs
		if probe != nil {
			in.stalls += probe.OnOp(op, instrs)
		}
		if tracer != nil {
			in.steps, in.instrs = steps, instrsTot
			tracer.OnOp(code, opc, op, instrs)
		}

		switch ins.Op {
		case minipy.RopNop:
			pc++
		case minipy.RopLoadConst:
			regs[ins.A] = rconsts[ins.Arg]
			pc++
		case minipy.RopLoadLocal:
			if probe != nil {
				in.memAccess(frameBase+uint64(ins.Arg)*8, false)
			}
			src := &regs[ins.B]
			if src.tag == tagEmpty {
				errv = in.failAt(code, opc, nameErr("local variable '%s' referenced before assignment",
					code.LocalNames[ins.B]))
				goto done
			}
			regs[ins.A] = *src
			pc++
		case minipy.RopStoreLocal:
			if probe != nil {
				in.memAccess(frameBase+uint64(ins.A)*8, true)
			}
			regs[ins.A] = regs[ins.B]
			pc++
		case minipy.RopLoadGlobal:
			name := names[ins.Arg]
			if probe != nil {
				in.memAccess(0x4000+nameHash(name)%1024*8, false)
			}
			var v minipy.Value
			if s := &gcache[ins.Arg]; s.ver == in.gver {
				v = s.val
			} else {
				var ok bool
				v, ok = in.Globals[name]
				if !ok {
					v, ok = in.builtins[name]
					if !ok {
						errv = in.failAt(code, opc, nameErr("name '%s' is not defined", name))
						goto done
					}
				}
				s.ver, s.val = in.gver, v
			}
			rsetVal(&regs[ins.A], v)
			pc++
		case minipy.RopStoreGlobal:
			name := names[ins.Arg]
			if probe != nil {
				in.memAccess(0x4000+nameHash(name)%1024*8, true)
			}
			v := rbox(&regs[ins.A])
			in.Globals[name] = v
			in.gver++
			gcache[ins.Arg] = gslot{ver: in.gver, val: v}
			pc++
		case minipy.RopLoadCell:
			c := cells[ins.Arg]
			if probe != nil {
				in.memAccess(frameBase+256+uint64(ins.Arg)*8, false)
			}
			if c.V == nil {
				errv = in.failAt(code, opc, nameErr("free variable referenced before assignment"))
				goto done
			}
			rsetVal(&regs[ins.A], c.V)
			pc++
		case minipy.RopStoreCell:
			if probe != nil {
				in.memAccess(frameBase+256+uint64(ins.Arg)*8, true)
			}
			cells[ins.Arg].V = rbox(&regs[ins.A])
			pc++
		case minipy.RopPushCell:
			regs[ins.A] = rslot{ref: cells[ins.Arg], tag: tagRef}
			pc++
		case minipy.RopLoadAttr:
			target := rbox(&regs[ins.A])
			var v minipy.Value
			var err error
			if acache != nil {
				v, err = in.getAttrCached(target, names[ins.Arg], &acache[opc])
			} else {
				v, err = in.getAttr(target, names[ins.Arg])
			}
			if err != nil {
				errv = in.failAt(code, opc, err)
				goto done
			}
			rsetVal(&regs[ins.B], v)
			pc++
		case minipy.RopStoreAttr:
			err := in.setAttr(rbox(&regs[ins.A]), names[ins.Arg], rbox(&regs[ins.B]))
			if err != nil {
				errv = in.failAt(code, opc, err)
				goto done
			}
			pc++
		case minipy.RopBinary:
			bop := minipy.BinOpCode(ins.Arg)
			a, b := regs[ins.A], regs[ins.B]
			if a.tag == tagInt && b.tag == tagInt &&
				intBinFast(&regs[ins.C], bop, a.num, b.num) {
				// Monomorphic int site: quicken in place. The guard is
				// re-checked by the quickened form on every execution.
				ops[pc].Op = minipy.RopBinaryII
			} else if a.tag == tagFloat && b.tag == tagFloat &&
				floatBinFast(&regs[ins.C], bop, rfloat(&a), rfloat(&b)) {
				ops[pc].Op = minipy.RopBinaryFF
			} else if err := in.regBinaryGeneric(bop, &a, &b, &regs[ins.C]); err != nil {
				errv = in.failAt(code, opc, err)
				goto done
			}
			pc++
		case minipy.RopBinaryII:
			a, b := regs[ins.A], regs[ins.B]
			if !(a.tag == tagInt && b.tag == tagInt &&
				intBinFast(&regs[ins.C], minipy.BinOpCode(ins.Arg), a.num, b.num)) {
				// Shape miss: generic path for this execution, no rewrite
				// back (a rare polymorphic hit costs two tag tests).
				if err := in.regBinaryGeneric(minipy.BinOpCode(ins.Arg), &a, &b, &regs[ins.C]); err != nil {
					errv = in.failAt(code, opc, err)
					goto done
				}
			}
			pc++
		case minipy.RopBinaryFF:
			a, b := regs[ins.A], regs[ins.B]
			if !(a.tag == tagFloat && b.tag == tagFloat &&
				floatBinFast(&regs[ins.C], minipy.BinOpCode(ins.Arg), rfloat(&a), rfloat(&b))) {
				if err := in.regBinaryGeneric(minipy.BinOpCode(ins.Arg), &a, &b, &regs[ins.C]); err != nil {
					errv = in.failAt(code, opc, err)
					goto done
				}
			}
			pc++
		case minipy.RopUnary:
			uop := minipy.UnOpCode(ins.Arg)
			src := &regs[ins.A]
			if uop == minipy.UnNot {
				rsetBool(&regs[ins.B], !rtruth(src))
			} else if uop == minipy.UnNeg && src.tag == tagInt {
				rsetInt(&regs[ins.B], -src.num)
			} else if uop == minipy.UnNeg && src.tag == tagFloat {
				rsetFloat(&regs[ins.B], -rfloat(src))
			} else {
				v, err := in.unary(uop, rbox(src))
				if err != nil {
					errv = in.failAt(code, opc, err)
					goto done
				}
				rsetVal(&regs[ins.B], v)
			}
			pc++
		case minipy.RopJump:
			target := int(ins.Arg)
			// The loop head is the first source op the target covers.
			if head := ops[target].Orig - int32(ops[target].Pre); jit != nil &&
				head <= ins.Orig && !sites[head].compiled {
				in.jitPauses += jit.onBackEdge(sites, ins.Orig, head)
				if sites[head].compiled {
					// The trace covers exactly instructions target..pc.
					in.recharge(st, target, pc+1)
				}
			}
			pc = target
		case minipy.RopJumpIfFalse, minipy.RopJumpIfTrue:
			inTrace := sites != nil && sites[opc].compiled
			cond := rtruth(&regs[ins.A])
			taken := (ins.Op == minipy.RopJumpIfFalse && !cond) ||
				(ins.Op == minipy.RopJumpIfTrue && cond)
			if probe != nil || inTrace {
				in.branchEvent(st, opc, taken, inTrace)
			}
			if taken {
				pc = int(ins.Arg)
			} else {
				pc++
			}
		case minipy.RopJumpIfFalseKeep, minipy.RopJumpIfTrueKeep:
			inTrace := sites != nil && sites[opc].compiled
			cond := rtruth(&regs[ins.A])
			taken := (ins.Op == minipy.RopJumpIfFalseKeep && !cond) ||
				(ins.Op == minipy.RopJumpIfTrueKeep && cond)
			if probe != nil || inTrace {
				in.branchEvent(st, opc, taken, inTrace)
			}
			if taken {
				pc = int(ins.Arg)
			} else {
				pc++
			}
		case minipy.RopCall:
			n := int(ins.Arg)
			callee := rbox(&regs[ins.A])
			var nested bool // the callee runs a frame
			switch callee.(type) {
			case *minipy.Function, *minipy.BoundMethod, *minipy.Class:
				nested = true
			}
			var stored uint64 // what the elided store after the call charges
			if nested {
				// The callee runs before the store it returns into.
				if ins.Post != 0 {
					stored = in.chargeRange(st, opc+1, opc+1+int(ins.Post))
				}
				in.steps, in.instrs = steps-uint64(ins.Post), instrsTot-stored
			}
			var callRet rslot
			var err error
			switch f := callee.(type) {
			case *minipy.Function:
				callRet, err = in.callFunctionReg(f, regs[ins.A+1:int(ins.A)+1+n])
			case *minipy.BoundMethod:
				callRet, err = in.callBoundReg(f, regs[ins.A+1:int(ins.A)+1+n])
			default:
				// Builtins, classes, non-callables: box the args and share
				// call() — identical behavior and errors.
				boxed := in.getLocals(n)
				for i := 0; i < n; i++ {
					boxed[i] = rbox(&regs[int(ins.A)+1+i])
				}
				var v minipy.Value
				v, err = in.call(callee, boxed)
				in.putLocals(boxed)
				callRet = runbox(v)
			}
			if nested {
				// A trace the callee compiled may cover the store.
				if ins.Post != 0 {
					stored = in.chargeRange(st, opc+1, opc+1+int(ins.Post))
				}
				steps, instrsTot = in.steps+uint64(ins.Post), in.instrs+stored
			}
			if err != nil {
				errv = in.failAt(code, opc, err)
				goto done
			}
			if steps > maxSteps {
				// The callee spent the budget: the store it returns into
				// finds it exhausted.
				steps, instrsTot = maxSteps+1, instrsTot-stored
				errv = budgetErr(code.Lines[opc+1])
				goto stop
			}
			regs[ins.B] = callRet
			pc++
		case minipy.RopReturn:
			ret = regs[ins.A]
			goto done
		case minipy.RopDrop:
			regs[ins.A] = rslot{}
			pc++
		case minipy.RopDup:
			regs[ins.A] = regs[ins.B]
			pc++
		case minipy.RopDup2:
			regs[ins.A] = regs[ins.B]
			regs[ins.A+1] = regs[ins.B+1]
			pc++
		case minipy.RopBuildList:
			n := int(ins.Arg)
			seg := in.getLocals(n)
			for i := 0; i < n; i++ {
				seg[i] = rbox(&regs[int(ins.A)+i])
			}
			l := minipy.NewListFrom(seg, in.alloc(uint64(24+8*n)))
			in.putLocals(seg)
			regs[ins.B] = rslot{ref: l, tag: tagRef}
			pc++
		case minipy.RopBuildTuple:
			n := int(ins.Arg)
			seg := in.getLocals(n)
			for i := 0; i < n; i++ {
				seg[i] = rbox(&regs[int(ins.A)+i])
			}
			t := minipy.NewTupleFrom(seg, in.alloc(uint64(16+8*n)))
			in.putLocals(seg)
			regs[ins.B] = rslot{ref: t, tag: tagRef}
			pc++
		case minipy.RopBuildDict:
			n := int(ins.Arg)
			d := in.newDict()
			ok := true
			for i := 0; i < n; i++ {
				kv := rbox(&regs[int(ins.A)+2*i])
				vv := rbox(&regs[int(ins.A)+2*i+1])
				k, err := minipy.MakeKey(kv)
				if err != nil {
					errv = in.failAt(code, opc, typeErr("%s", err.Error()))
					ok = false
					break
				}
				d.Set(k, kv, vv)
			}
			if !ok {
				goto done
			}
			regs[ins.A] = rslot{ref: d, tag: tagRef}
			pc++
		case minipy.RopBuildClass:
			n := int(ins.Arg)
			seg := in.getLocals(2*n + 2)
			for i := range seg {
				seg[i] = rbox(&regs[int(ins.A)+i])
			}
			cls, err := in.buildClass(seg, n)
			in.putLocals(seg)
			if err != nil {
				errv = in.failAt(code, opc, err)
				goto done
			}
			regs[ins.A] = rslot{ref: cls, tag: tagRef}
			pc++
		case minipy.RopIndexGet:
			handled, err := in.regIndexGet(&regs[ins.A], &regs[ins.B], &regs[ins.C])
			if !handled && err == nil {
				var v minipy.Value
				v, err = in.indexGet(rbox(&regs[ins.A]), rbox(&regs[ins.B]))
				if err == nil {
					rsetVal(&regs[ins.C], v)
				}
			}
			if err != nil {
				errv = in.failAt(code, opc, err)
				goto done
			}
			pc++
		case minipy.RopIndexSet:
			err := in.indexSet(rbox(&regs[ins.A]), rbox(&regs[ins.B]), rbox(&regs[ins.C]))
			if err != nil {
				errv = in.failAt(code, opc, err)
				goto done
			}
			pc++
		case minipy.RopSliceGet:
			v, err := in.sliceGet(rbox(&regs[ins.A]), rbox(&regs[ins.B]), rbox(&regs[ins.C]))
			if err != nil {
				errv = in.failAt(code, opc, err)
				goto done
			}
			rsetVal(&regs[ins.A], v)
			pc++
		case minipy.RopDelIndex:
			if err := in.delIndex(rbox(&regs[ins.A]), rbox(&regs[ins.B])); err != nil {
				errv = in.failAt(code, opc, err)
				goto done
			}
			pc++
		case minipy.RopGetIter:
			it, err := in.getIter(rbox(&regs[ins.A]))
			if err != nil {
				errv = in.failAt(code, opc, err)
				goto done
			}
			regs[ins.A] = rslot{ref: it, tag: tagRef}
			pc++
		case minipy.RopForIter, minipy.RopForIterRange:
			inTrace := sites != nil && sites[opc].compiled
			if r, ok := regs[ins.A].ref.(*rangeIter); ok {
				if ins.Op == minipy.RopForIter {
					ops[pc].Op = minipy.RopForIterRange
				}
				// Inline range protocol: the produced element stays an
				// unboxed tagInt, so large loop counters never box.
				more := r.cur < r.stop
				if r.step <= 0 {
					more = r.cur > r.stop
				}
				if probe != nil || inTrace {
					in.branchEvent(st, opc, !more, inTrace)
				}
				if !more {
					regs[ins.A] = rslot{}
					pc = int(ins.Arg)
				} else {
					rsetInt(&regs[ins.A+1], r.cur)
					r.cur += r.step
					pc++
				}
			} else {
				it, ok := regs[ins.A].ref.(iterator)
				if !ok {
					errv = in.failAt(code, opc, typeErr("'%s' object is not an iterator", rbox(&regs[ins.A]).TypeName()))
					goto done
				}
				v, more := it.next()
				if probe != nil || inTrace {
					in.branchEvent(st, opc, !more, inTrace)
				}
				if !more {
					regs[ins.A] = rslot{}
					pc = int(ins.Arg)
				} else {
					rsetVal(&regs[ins.A+1], v)
					pc++
				}
			}
		case minipy.RopMakeFunction:
			fnCode := code.Consts[ins.Arg].(*minipy.Code)
			nf := len(fnCode.FreeNames)
			var free []*minipy.Cell
			if nf > 0 {
				free = make([]*minipy.Cell, nf)
				for i := 0; i < nf; i++ {
					cell, ok := regs[int(ins.A)+i].ref.(*minipy.Cell)
					if !ok {
						errv = in.failAt(code, opc, typeErr("free variable %q of %s is '%s', not a cell",
							fnCode.FreeNames[i], fnCode.Name, rbox(&regs[int(ins.A)+i]).TypeName()))
						goto done
					}
					free[i] = cell
				}
			}
			regs[ins.A] = rslot{ref: &minipy.Function{Code: fnCode, Free: free}, tag: tagRef}
			pc++
		case minipy.RopUnpack:
			n := int(ins.Arg)
			seq := rbox(&regs[ins.A])
			var items []minipy.Value
			switch s := seq.(type) {
			case *minipy.Tuple:
				items = s.Items
			case *minipy.List:
				items = s.Items
			default:
				errv = in.failAt(code, opc, typeErr("cannot unpack non-sequence %s", seq.TypeName()))
				goto done
			}
			if len(items) != n {
				errv = in.failAt(code, opc, valueErr("expected %d values to unpack, got %d", n, len(items)))
				goto done
			}
			for i := 0; i < n; i++ {
				rsetVal(&regs[int(ins.A)+i], items[n-1-i])
			}
			pc++
		case minipy.RopLoadLocalPair:
			slotA, slotB := ins.B, ins.C
			if probe != nil {
				in.memAccess(frameBase+uint64(slotA)*8, false)
				in.memAccess(frameBase+uint64(slotB)*8, false)
			}
			if regs[slotA].tag == tagEmpty {
				errv = in.failAt(code, opc, nameErr("local variable '%s' referenced before assignment",
					code.LocalNames[slotA]))
				goto done
			}
			if regs[slotB].tag == tagEmpty {
				errv = in.failAt(code, opc, nameErr("local variable '%s' referenced before assignment",
					code.LocalNames[slotB]))
				goto done
			}
			regs[ins.A] = regs[slotA]
			regs[ins.A+1] = regs[slotB]
			pc++
		case minipy.RopLoadLocalConst:
			slot := ins.B
			if probe != nil {
				in.memAccess(frameBase+uint64(slot)*8, false)
			}
			if regs[slot].tag == tagEmpty {
				errv = in.failAt(code, opc, nameErr("local variable '%s' referenced before assignment",
					code.LocalNames[slot]))
				goto done
			}
			regs[ins.A] = regs[slot]
			regs[ins.A+1] = rconsts[ins.Arg>>12]
			pc++
		case minipy.RopBinaryJumpIfFalse, minipy.RopBinaryJumpIfFalseII:
			inTrace := sites != nil && sites[opc].compiled
			bop := minipy.BinOpCode(ins.Arg & 0xF)
			a, b := regs[ins.A], regs[ins.B]
			var tmp rslot
			var taken bool
			if a.tag == tagInt && b.tag == tagInt && intBinFast(&tmp, bop, a.num, b.num) {
				if ins.Op == minipy.RopBinaryJumpIfFalse {
					ops[pc].Op = minipy.RopBinaryJumpIfFalseII
				}
				taken = !rtruth(&tmp)
			} else {
				v, err := in.binary(bop, rbox(&a), rbox(&b))
				if err != nil {
					errv = in.failAt(code, opc, err)
					goto done
				}
				taken = !v.Truth()
			}
			if probe != nil || inTrace {
				in.branchEvent(st, opc, taken, inTrace)
			}
			if taken {
				pc = int(ins.Arg >> 4)
			} else {
				pc++
			}
		default:
			errv = in.failAt(code, opc, &RuntimeError{Kind: "SystemError",
				Msg: "unknown register opcode " + ins.Op.String()})
			goto done
		}

		// Post-op value hook: materialize the boxed operand stack the stack
		// program holds after this op (registers L..L+d-1, where d is the
		// entry depth of the next instruction) and report it. Raising paths
		// goto done above and never reach here.
		if vtracer != nil {
			d := int(rc.Depth[ops[pc].Orig])
			vstack = vstack[:0]
			for k := 0; k < d; k++ {
				vstack = append(vstack, rbox(&regs[L+k]))
			}
			in.steps, in.instrs = steps, instrsTot
			vtracer.OnValue(code, opc, op, vstack)
		}
	}

done:
	if errv != nil && ins.Post != 0 {
		// The kept op raised, so the store it absorbed never ran.
		c := in.chargeRange(st, int(ins.Orig)+1, int(ins.Orig)+1+int(ins.Post))
		steps, instrsTot = steps-uint64(ins.Post), instrsTot-c
	}
stop:
	in.steps, in.instrs = steps, instrsTot
	return ret, errv
}

// stepLimit is the largest step count regLoop reaches before its slow
// path: the budget, or with a cancellable Context the last step before the
// next multiple of abortPollInterval.
func (in *Interp) stepLimit(steps uint64) uint64 {
	if in.cancel == nil {
		return in.maxSteps
	}
	return min(in.maxSteps, steps|(abortPollInterval-1))
}

// DisassembleQuickened renders this Interp's current register stream for
// code — including any in-place quickening rewrites accumulated so far —
// for debugging and byte-stable golden tests. Returns "" when the code
// object has not executed (no state, or it could not be lowered).
func (in *Interp) DisassembleQuickened(code *minipy.Code) string {
	st, ok := in.codeStates[code]
	if !ok || st.err != nil {
		return ""
	}
	return st.rc.Disassemble()
}
