package minipy

import "fmt"

// VerifyError reports a bytecode verification failure.
type VerifyError struct {
	Code *Code
	PC   int
	Msg  string
}

func (e *VerifyError) Error() string {
	return fmt.Sprintf("minipy: verify %s at pc %d: %s", e.Code.Name, e.PC, e.Msg)
}

// Verify checks a compiled code object (and, recursively, every nested code
// object in its constant pool) for structural soundness:
//
//   - every instruction argument indexes within its pool (constants, names,
//     locals, cells) and every jump target is in range;
//   - the operand stack is balanced: abstract interpretation over the CFG
//     proves the stack depth is non-negative everywhere, consistent at
//     every join point, and exactly 1 at every RETURN;
//   - control cannot fall off the end of the bytecode.
//
// The compiler is trusted but verified: the test suite runs Verify over all
// workloads and over randomly generated programs, so any codegen change
// that unbalances the stack fails structurally instead of crashing an
// engine at a distance.
func Verify(code *Code) error {
	if err := verifyOne(code); err != nil {
		return err
	}
	for _, k := range code.Consts {
		if sub, ok := k.(*Code); ok {
			if err := Verify(sub); err != nil {
				return err
			}
		}
	}
	return nil
}

func verifyOne(code *Code) error {
	depth, err := stackDepths(code)
	if err != nil {
		return err
	}
	// Every post-push depth is some reachable instruction's entry depth
	// (ops pop before pushing), so the maximum entry depth is the frame's
	// true operand-stack high-water mark.
	code.MaxStack = maxDepth(depth)
	return nil
}

// maxDepth is the largest entry depth.
func maxDepth(depth []int32) int {
	m := 0
	for _, d := range depth {
		m = max(m, int(d))
	}
	return m
}

// stackDepths validates every instruction's arguments (pass 1), then
// interprets the operand-stack depth over the CFG (pass 2) and returns each
// pc's entry depth (-1 = unreachable). It writes nothing to code: the
// verifier derives MaxStack from it, and LowerToRegister calls it on code
// objects the VM may be lowering from several goroutines.
func stackDepths(code *Code) ([]int32, error) {
	n := len(code.Ops)
	if n == 0 {
		return nil, &VerifyError{Code: code, PC: 0, Msg: "empty code object"}
	}
	fail := func(pc int, format string, args ...interface{}) error {
		return &VerifyError{Code: code, PC: pc, Msg: fmt.Sprintf(format, args...)}
	}

	// Pass 1: argument validation.
	for pc, ins := range code.Ops {
		arg := int(ins.Arg)
		switch ins.Op {
		case OpLoadConst, OpMakeFunction:
			if arg < 0 || arg >= len(code.Consts) {
				return nil, fail(pc, "const index %d out of range", arg)
			}
			if ins.Op == OpMakeFunction {
				if _, ok := code.Consts[arg].(*Code); !ok {
					return nil, fail(pc, "MAKE_FUNCTION const %d is not code", arg)
				}
			}
		case OpLoadLocal, OpStoreLocal:
			if arg < 0 || arg >= len(code.LocalNames) {
				return nil, fail(pc, "local slot %d out of range", arg)
			}
		case OpLoadGlobal, OpStoreGlobal, OpLoadAttr, OpStoreAttr:
			if arg < 0 || arg >= len(code.Names) {
				return nil, fail(pc, "name index %d out of range", arg)
			}
		case OpLoadCell, OpStoreCell, OpPushCell:
			if arg < 0 || arg >= code.NumCells() {
				return nil, fail(pc, "cell index %d out of range (%d cells)", arg, code.NumCells())
			}
		case OpJump, OpJumpIfFalse, OpJumpIfTrue, OpJumpIfFalseKeep,
			OpJumpIfTrueKeep, OpForIter:
			if arg < 0 || arg >= n {
				return nil, fail(pc, "jump target %d out of range", arg)
			}
		case OpBinary:
			if arg < 0 || arg > int(BinIn) {
				return nil, fail(pc, "binary sub-op %d invalid", arg)
			}
		case OpUnary:
			if arg < 0 || arg > int(UnPos) {
				return nil, fail(pc, "unary sub-op %d invalid", arg)
			}
		case OpCall, OpBuildList, OpBuildTuple, OpBuildDict, OpBuildClass, OpUnpack:
			if arg < 0 {
				return nil, fail(pc, "negative count %d", arg)
			}
		case OpLoadLocalPair:
			if a := arg & 0xFFF; a >= len(code.LocalNames) {
				return nil, fail(pc, "local slot %d out of range", a)
			}
			if b := arg >> 12; b < 0 || b >= len(code.LocalNames) {
				return nil, fail(pc, "local slot %d out of range", b)
			}
		case OpLoadLocalConst:
			if s := arg & 0xFFF; s >= len(code.LocalNames) {
				return nil, fail(pc, "local slot %d out of range", s)
			}
			if k := arg >> 12; k < 0 || k >= len(code.Consts) {
				return nil, fail(pc, "const index %d out of range", k)
			}
		case OpBinaryJumpIfFalse:
			if b := arg & 0xF; b > int(BinIn) {
				return nil, fail(pc, "binary sub-op %d invalid", b)
			}
			if t := arg >> 4; t < 0 || t >= n {
				return nil, fail(pc, "jump target %d out of range", t)
			}
		}
	}

	// Pass 2: abstract stack-depth interpretation over the CFG.
	depth := make([]int32, n)
	for i := range depth {
		depth[i] = -1 // unreachable / unknown
	}
	depth[0] = 0
	// The worklist holds the pending branch targets, rarely more than a
	// few, so it starts on the stack: lowering a code object for each
	// interpreter that runs it then allocates only what the lowering keeps.
	var workBuf [16]int
	work := append(workBuf[:0], 0)
	// propagate records a successor's depth, checking join consistency.
	propagate := func(from, to int, d int32) error {
		if d < 0 {
			return fail(from, "stack underflow (depth %d entering pc %d)", d, to)
		}
		if to >= n {
			return fail(from, "control falls off the end")
		}
		if depth[to] == -1 {
			depth[to] = d
			work = append(work, to)
			return nil
		}
		if depth[to] != d {
			return fail(from, "inconsistent stack depth at join pc %d: %d vs %d",
				to, depth[to], d)
		}
		return nil
	}

	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		d := depth[pc]
		ins := code.Ops[pc]
		arg := int(ins.Arg)

		switch ins.Op {
		case OpReturn:
			if d != 1 {
				return nil, fail(pc, "RETURN with stack depth %d (want 1)", d)
			}
			continue
		case OpJump:
			if err := propagate(pc, arg, d); err != nil {
				return nil, err
			}
			continue
		case OpJumpIfFalse, OpJumpIfTrue:
			if err := propagate(pc, arg, d-1); err != nil {
				return nil, err
			}
			if err := propagate(pc, pc+1, d-1); err != nil {
				return nil, err
			}
			continue
		case OpJumpIfFalseKeep, OpJumpIfTrueKeep:
			// Jump path keeps the value; fallthrough pops it.
			if err := propagate(pc, arg, d); err != nil {
				return nil, err
			}
			if err := propagate(pc, pc+1, d-1); err != nil {
				return nil, err
			}
			continue
		case OpForIter:
			// Exit path pops the iterator; loop path pushes the element.
			if err := propagate(pc, arg, d-1); err != nil {
				return nil, err
			}
			if err := propagate(pc, pc+1, d+1); err != nil {
				return nil, err
			}
			continue
		case OpBinaryJumpIfFalse:
			// Fused BINARY + JUMP_IF_FALSE: pops two operands either way.
			if d < 2 {
				return nil, fail(pc, "stack underflow executing %v at depth %d", ins.Op, d)
			}
			if err := propagate(pc, arg>>4, d-2); err != nil {
				return nil, err
			}
			if err := propagate(pc, pc+1, d-2); err != nil {
				return nil, err
			}
			continue
		}

		eff, ok := stackEffect(code, ins)
		if !ok {
			return nil, fail(pc, "unknown opcode %v", ins.Op)
		}
		// Intermediate depth must never dip below zero (pops happen first).
		if int(d)+minPops(code, ins) < 0 {
			return nil, fail(pc, "stack underflow executing %v at depth %d", ins.Op, d)
		}
		if err := propagate(pc, pc+1, d+int32(eff)); err != nil {
			return nil, err
		}
	}

	return depth, nil
}

// stackEffect returns the net stack delta of a non-control instruction.
func stackEffect(code *Code, ins Instr) (int, bool) {
	arg := int(ins.Arg)
	switch ins.Op {
	case OpNop:
		return 0, true
	case OpLoadConst, OpLoadLocal, OpLoadGlobal, OpLoadCell, OpPushCell, OpDup:
		return 1, true
	case OpDup2, OpLoadLocalPair, OpLoadLocalConst:
		return 2, true
	case OpStoreLocal, OpStoreGlobal, OpStoreCell, OpPop, OpBinary, OpIndexGet:
		return -1, true
	case OpLoadAttr, OpUnary, OpGetIter:
		return 0, true
	case OpStoreAttr, OpSliceGet, OpDelIndex:
		return -2, true
	case OpIndexSet:
		return -3, true
	case OpCall:
		return -arg, true // pops fn + args, pushes result
	case OpBuildList, OpBuildTuple:
		return 1 - arg, true
	case OpBuildDict:
		return 1 - 2*arg, true
	case OpBuildClass:
		return 1 - (2*arg + 2), true
	case OpMakeFunction:
		sub := code.Consts[arg].(*Code)
		return 1 - len(sub.FreeNames), true
	case OpUnpack:
		return arg - 1, true
	}
	return 0, false
}

// minPops returns the (negative) number of values an instruction pops
// before pushing anything, for underflow detection.
func minPops(code *Code, ins Instr) int {
	arg := int(ins.Arg)
	switch ins.Op {
	case OpStoreLocal, OpStoreGlobal, OpStoreCell, OpPop, OpLoadAttr,
		OpUnary, OpGetIter, OpUnpack:
		return -1
	case OpBinary, OpIndexGet, OpStoreAttr, OpDelIndex:
		return -2
	case OpSliceGet, OpIndexSet:
		return -3
	case OpCall:
		return -(arg + 1)
	case OpBuildList, OpBuildTuple:
		return -arg
	case OpBuildDict:
		return -2 * arg
	case OpBuildClass:
		return -(2*arg + 2)
	case OpMakeFunction:
		sub := code.Consts[arg].(*Code)
		return -len(sub.FreeNames)
	case OpDup:
		return -1 // reads one
	case OpDup2:
		return -2 // reads two
	}
	return 0
}
