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
//   - the line table has one entry per op and every cell-boxed local is a
//     local slot;
//   - every instruction argument indexes within its pool (constants, names,
//     locals, cells) and every jump target is in range, as the format table
//     (format.go) says;
//   - the operand stack is balanced: abstract interpretation over the CFG
//     proves the stack depth is non-negative everywhere, consistent at
//     every join point, and exactly 1 at every RETURN, and the frame
//     (locals plus the deepest stack) holds at most maxFrameRegs
//     registers;
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

// maxFrameRegs bounds a frame's registers: its locals plus its deepest
// operand stack. The compiler's frames use a few dozen; a count operand
// that a verified program could otherwise set near 2^31 would make the VM
// allocate its frame before running an op.
const maxFrameRegs = 1 << 16

// stackDepths checks the code's frame tables (checkFrame) and every
// instruction's argument against the format table (pass 1), then interprets
// the operand-stack depth over the CFG (pass 2) and returns each pc's entry
// depth (-1 = unreachable). It writes nothing to code: the verifier derives
// MaxStack from it, and LowerToRegister calls it on code objects the VM may
// be lowering from several goroutines.
func stackDepths(code *Code) ([]int32, error) {
	n := len(code.Ops)
	if n == 0 {
		return nil, &VerifyError{Code: code, PC: 0, Msg: "empty code object"}
	}
	fail := func(pc int, format string, args ...interface{}) error {
		return &VerifyError{Code: code, PC: pc, Msg: fmt.Sprintf(format, args...)}
	}
	if err := checkFrame(code); err != nil {
		return nil, fail(0, "%v", err)
	}

	// Pass 1: argument validation.
	for pc, ins := range code.Ops {
		if err := checkArg(code, opFormats[ins.Op].arg, ins.Arg, n); err != nil {
			return nil, fail(pc, "%v", err)
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
	// propagate records a successor's depth, checking join consistency and
	// the frame bound. RETURN, the one op that propagates nothing, needs
	// depth 1 and so cannot come first: the bound covers the locals too.
	propagate := func(from, to, d int) error {
		if regs := len(code.LocalNames) + d; regs > maxFrameRegs {
			return fail(from, "frame of %d registers entering pc %d exceeds %d", regs, to, maxFrameRegs)
		}
		if to >= n {
			return fail(from, "control falls off the end")
		}
		if depth[to] == -1 {
			depth[to] = int32(d)
			work = append(work, to)
			return nil
		}
		if int(depth[to]) != d {
			return fail(from, "inconsistent stack depth at join pc %d: %d vs %d",
				to, depth[to], d)
		}
		return nil
	}

	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		d := int(depth[pc])
		ins := code.Ops[pc]
		if ins.Op >= opCount {
			return nil, fail(pc, "unknown opcode %v", ins.Op)
		}
		if ins.Op == OpReturn && d != 1 {
			return nil, fail(pc, "RETURN with stack depth %d (want 1)", d)
		}
		f := &opFormats[ins.Op]
		pop, push, jump := f.effect(code, ins.Arg)
		// Pops happen first, so the depth must cover them.
		if d < pop {
			return nil, fail(pc, "stack underflow executing %v at depth %d", ins.Op, d)
		}
		if t, ok := ins.Target(); ok {
			if err := propagate(pc, t, d-pop+jump); err != nil {
				return nil, err
			}
		}
		if !f.noFall {
			if err := propagate(pc, pc+1, d-pop+push); err != nil {
				return nil, err
			}
		}
	}

	return depth, nil
}
