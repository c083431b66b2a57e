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
// soundness against the register format table (format.go): every register
// operand addresses within the frame's register file, every pool index
// (constants, names, locals, cells) is in range, every jump target lands
// inside the code, and no quickened opcode appears (an interpreter quickens
// its own lowering only after verifying it).
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
	for pc, ins := range rc.Ops {
		if int(ins.Orig)-int(ins.Pre) < 0 || int(ins.Orig)+int(ins.Post) >= len(code.Ops) {
			return fail(pc, "source pcs %d-%d out of range", int(ins.Orig)-int(ins.Pre), int(ins.Orig)+int(ins.Post))
		}
		f := &rFormats[ins.Op]
		if f.quick {
			return fail(pc, "quickened opcode %v in freshly lowered code", ins.Op)
		}
		if ins.Op >= ropCount {
			return fail(pc, "unknown register opcode %d", int(ins.Op))
		}
		if err := checkArg(code, f.arg, ins.Arg, n); err != nil {
			return fail(pc, "%v", err)
		}
		size := 0
		if f.blkN != 0 {
			size = int(f.blk) + int(f.blkN)*count(code, f.arg, ins.Arg)
		}
		regs := [3]int32{ins.A, ins.B, ins.C}
		for i, k := range [3]operand{f.a, f.b, f.c} {
			if err := rc.checkOperand(k, regs[i], size); err != nil {
				return fail(pc, "%v", err)
			}
		}
	}
	return nil
}
