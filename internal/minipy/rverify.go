package minipy

import "fmt"

// RVerifyError reports a register-code verification failure.
type RVerifyError struct {
	RCode *RCode
	PC    int
	Msg   string
}

func (e *RVerifyError) Error() string {
	return fmt.Sprintf("minipy: rverify %s at pc %d: %s", e.RCode.Code.Name, e.PC, e.Msg)
}

// VerifyRegister checks freshly lowered register code for structural
// soundness: every register operand addresses within the frame's register
// file, every pool index (constants, names, cells) is in range, every jump
// target lands inside the code, and no quickened opcode appears (an
// interpreter quickens its own lowering only after verifying it).
// The test suite runs it over every lowered workload and over randomly
// generated programs, mirroring the stack verifier's trusted-but-verified
// contract.
func VerifyRegister(rc *RCode) error {
	n := len(rc.Ops)
	if n == 0 {
		return &RVerifyError{RCode: rc, PC: 0, Msg: "empty register code"}
	}
	if rc.NumRegs < rc.NumLocals {
		return &RVerifyError{RCode: rc, PC: 0,
			Msg: fmt.Sprintf("register file (%d) smaller than locals (%d)", rc.NumRegs, rc.NumLocals)}
	}
	code := rc.Code
	fail := func(pc int, format string, args ...interface{}) error {
		return &RVerifyError{RCode: rc, PC: pc, Msg: fmt.Sprintf(format, args...)}
	}
	checkReg := func(pc int, r int32) error {
		if r < 0 || int(r) >= rc.NumRegs {
			return fail(pc, "register r%d out of range (%d regs)", r, rc.NumRegs)
		}
		return nil
	}
	checkLocal := func(pc int, r int32) error {
		if r < 0 || int(r) >= rc.NumLocals {
			return fail(pc, "local register r%d out of range (%d locals)", r, rc.NumLocals)
		}
		return nil
	}
	checkTarget := func(pc int, t int32) error {
		if t < 0 || int(t) >= n {
			return fail(pc, "jump target %d out of range", t)
		}
		return nil
	}
	for pc, ins := range rc.Ops {
		if int(ins.Orig)-int(ins.Pre) < 0 || int(ins.Orig)+int(ins.Post) >= len(code.Ops) {
			return fail(pc, "source pcs %d-%d out of range", int(ins.Orig)-int(ins.Pre), int(ins.Orig)+int(ins.Post))
		}
		arg := int(ins.Arg)
		switch ins.Op {
		case RopNop:
		case RopLoadConst:
			if arg < 0 || arg >= len(code.Consts) {
				return fail(pc, "const index %d out of range", arg)
			}
			if err := checkReg(pc, ins.A); err != nil {
				return err
			}
		case RopLoadLocal:
			if err := checkReg(pc, ins.A); err != nil {
				return err
			}
			if err := checkLocal(pc, ins.B); err != nil {
				return err
			}
		case RopStoreLocal:
			if err := checkLocal(pc, ins.A); err != nil {
				return err
			}
			if err := checkReg(pc, ins.B); err != nil {
				return err
			}
		case RopLoadGlobal, RopStoreGlobal:
			if arg < 0 || arg >= len(code.Names) {
				return fail(pc, "name index %d out of range", arg)
			}
			if err := checkReg(pc, ins.A); err != nil {
				return err
			}
		case RopLoadCell, RopStoreCell, RopPushCell:
			if arg < 0 || arg >= code.NumCells() {
				return fail(pc, "cell index %d out of range (%d cells)", arg, code.NumCells())
			}
			if err := checkReg(pc, ins.A); err != nil {
				return err
			}
		case RopLoadAttr:
			if arg < 0 || arg >= len(code.Names) {
				return fail(pc, "name index %d out of range", arg)
			}
			if err := checkReg(pc, ins.A); err != nil {
				return err
			}
			if err := checkReg(pc, ins.B); err != nil {
				return err
			}
		case RopStoreAttr:
			if arg < 0 || arg >= len(code.Names) {
				return fail(pc, "name index %d out of range", arg)
			}
			if err := checkReg(pc, ins.A); err != nil {
				return err
			}
			if err := checkReg(pc, ins.B); err != nil {
				return err
			}
		case RopBinary:
			if arg < 0 || arg > int(BinIn) {
				return fail(pc, "binary sub-op %d invalid", arg)
			}
			for _, r := range [3]int32{ins.A, ins.B, ins.C} {
				if err := checkReg(pc, r); err != nil {
					return err
				}
			}
		case RopUnary:
			if arg < 0 || arg > int(UnPos) {
				return fail(pc, "unary sub-op %d invalid", arg)
			}
			if err := checkReg(pc, ins.A); err != nil {
				return err
			}
			if err := checkReg(pc, ins.B); err != nil {
				return err
			}
		case RopJump:
			if err := checkTarget(pc, ins.Arg); err != nil {
				return err
			}
		case RopJumpIfFalse, RopJumpIfTrue, RopJumpIfFalseKeep, RopJumpIfTrueKeep:
			if err := checkTarget(pc, ins.Arg); err != nil {
				return err
			}
			if err := checkReg(pc, ins.A); err != nil {
				return err
			}
		case RopCall:
			if arg < 0 {
				return fail(pc, "negative arg count %d", arg)
			}
			if err := checkReg(pc, ins.A); err != nil {
				return err
			}
			if err := checkReg(pc, ins.B); err != nil {
				return err
			}
			if int(ins.A)+arg >= rc.NumRegs {
				return fail(pc, "call args r%d..r%d overrun register file", ins.A+1, int(ins.A)+arg)
			}
		case RopReturn, RopDrop:
			if err := checkReg(pc, ins.A); err != nil {
				return err
			}
		case RopDup:
			if err := checkReg(pc, ins.A); err != nil {
				return err
			}
			if err := checkReg(pc, ins.B); err != nil {
				return err
			}
		case RopDup2:
			if err := checkReg(pc, ins.A+1); err != nil {
				return err
			}
			if err := checkReg(pc, ins.B+1); err != nil {
				return err
			}
			if ins.A < 0 || ins.B < 0 {
				return fail(pc, "negative register base")
			}
		case RopBuildList, RopBuildTuple:
			if arg < 0 || int(ins.A)+arg > rc.NumRegs {
				return fail(pc, "build operands overrun register file")
			}
			if err := checkReg(pc, ins.A); err != nil {
				return err
			}
			if err := checkReg(pc, ins.B); err != nil {
				return err
			}
		case RopBuildDict:
			if arg < 0 || int(ins.A)+2*arg > rc.NumRegs {
				return fail(pc, "build operands overrun register file")
			}
			if err := checkReg(pc, ins.A); err != nil {
				return err
			}
		case RopBuildClass:
			if arg < 0 || int(ins.A)+2*arg+2 > rc.NumRegs {
				return fail(pc, "build operands overrun register file")
			}
			if err := checkReg(pc, ins.A); err != nil {
				return err
			}
		case RopIndexGet:
			for _, r := range [3]int32{ins.A, ins.B, ins.C} {
				if err := checkReg(pc, r); err != nil {
					return err
				}
			}
		case RopIndexSet, RopSliceGet:
			for _, r := range [3]int32{ins.A, ins.B, ins.C} {
				if err := checkReg(pc, r); err != nil {
					return err
				}
			}
		case RopDelIndex:
			if err := checkReg(pc, ins.A); err != nil {
				return err
			}
			if err := checkReg(pc, ins.B); err != nil {
				return err
			}
		case RopGetIter:
			if err := checkReg(pc, ins.A); err != nil {
				return err
			}
			if err := checkReg(pc, ins.B); err != nil {
				return err
			}
		case RopForIter:
			if err := checkTarget(pc, ins.Arg); err != nil {
				return err
			}
			if err := checkReg(pc, ins.A); err != nil {
				return err
			}
			if err := checkReg(pc, ins.A+1); err != nil {
				return err
			}
		case RopMakeFunction:
			if arg < 0 || arg >= len(code.Consts) {
				return fail(pc, "const index %d out of range", arg)
			}
			sub, ok := code.Consts[arg].(*Code)
			if !ok {
				return fail(pc, "RMAKE_FUNCTION const %d is not code", arg)
			}
			if err := checkReg(pc, ins.A); err != nil {
				return err
			}
			if nf := len(sub.FreeNames); nf > 0 {
				if err := checkReg(pc, ins.A+int32(nf)-1); err != nil {
					return err
				}
			}
		case RopUnpack:
			if arg < 0 || int(ins.A)+arg > rc.NumRegs {
				return fail(pc, "unpack results overrun register file")
			}
			if err := checkReg(pc, ins.A); err != nil {
				return err
			}
		case RopLoadLocalPair:
			if err := checkReg(pc, ins.A+1); err != nil {
				return err
			}
			if err := checkLocal(pc, ins.B); err != nil {
				return err
			}
			if err := checkLocal(pc, ins.C); err != nil {
				return err
			}
		case RopLoadLocalConst:
			if k := arg >> 12; k < 0 || k >= len(code.Consts) {
				return fail(pc, "const index %d out of range", k)
			}
			if err := checkReg(pc, ins.A+1); err != nil {
				return err
			}
			if err := checkLocal(pc, ins.B); err != nil {
				return err
			}
		case RopBinaryJumpIfFalse:
			if b := arg & 0xF; b > int(BinIn) {
				return fail(pc, "binary sub-op %d invalid", b)
			}
			if err := checkTarget(pc, ins.Arg>>4); err != nil {
				return err
			}
			if err := checkReg(pc, ins.A); err != nil {
				return err
			}
			if err := checkReg(pc, ins.B); err != nil {
				return err
			}
		case RopBinaryII, RopBinaryFF, RopBinaryJumpIfFalseII, RopForIterRange:
			return fail(pc, "quickened opcode %v in freshly lowered code", ins.Op)
		default:
			return fail(pc, "unknown register opcode %d", int(ins.Op))
		}
	}
	return nil
}
