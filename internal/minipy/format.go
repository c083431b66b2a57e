package minipy

import "fmt"

// The bytecode format. One table per instruction set says what each
// opcode's Arg holds and, for stack ops, what the op does to the operand
// stack; for register ops, what each of A, B and C addresses. Verify,
// VerifyRegister, the optimizer, ElideMoves and the analysis CFG read these
// tables through the helpers below instead of keeping their own copy of
// the format. Three readers keep their own switch on purpose: the VM's
// dispatch loop (the hot path), lowerOne (which maps each stack op to its
// register form) and the two disassemblers, whose output is pinned byte
// for byte.

// argKind is what an instruction's Arg holds.
type argKind uint8

const (
	argNone        argKind = iota
	argConst               // index into Consts
	argCode                // index into Consts of a *Code (MAKE_FUNCTION)
	argLocal               // local slot
	argName                // index into Names
	argCell                // cell slot
	argTarget              // jump target pc
	argBinOp               // BinOpCode
	argUnOp                // UnOpCode
	argCount               // element, argument or pair count, never negative
	argLocalPair           // local | local<<12
	argLocalConst          // local | const<<12
	argBinOpTarget         // BinOpCode | target<<4
)

// opFormat is one stack opcode's format. The op pops (or reads) pop
// operands, then pushes push of them on the fall-through path and jump on
// the jump path. A count op pops popN and pushes pushN more per unit of its
// count (see count). noFall marks the ops after which control never
// reaches pc+1.
type opFormat struct {
	arg             argKind
	pop, push, jump int8
	popN, pushN     int8
	noFall          bool
}

var opFormats = [256]opFormat{
	OpNop:               {},
	OpLoadConst:         {arg: argConst, push: 1},
	OpLoadLocal:         {arg: argLocal, push: 1},
	OpStoreLocal:        {arg: argLocal, pop: 1},
	OpLoadGlobal:        {arg: argName, push: 1},
	OpStoreGlobal:       {arg: argName, pop: 1},
	OpLoadCell:          {arg: argCell, push: 1},
	OpStoreCell:         {arg: argCell, pop: 1},
	OpPushCell:          {arg: argCell, push: 1},
	OpLoadAttr:          {arg: argName, pop: 1, push: 1},
	OpStoreAttr:         {arg: argName, pop: 2},
	OpBinary:            {arg: argBinOp, pop: 2, push: 1},
	OpUnary:             {arg: argUnOp, pop: 1, push: 1},
	OpJump:              {arg: argTarget, noFall: true},
	OpJumpIfFalse:       {arg: argTarget, pop: 1},
	OpJumpIfTrue:        {arg: argTarget, pop: 1},
	OpJumpIfFalseKeep:   {arg: argTarget, pop: 1, jump: 1},
	OpJumpIfTrueKeep:    {arg: argTarget, pop: 1, jump: 1},
	OpCall:              {arg: argCount, pop: 1, popN: 1, push: 1},
	OpReturn:            {pop: 1, noFall: true},
	OpPop:               {pop: 1},
	OpDup:               {pop: 1, push: 2},
	OpDup2:              {pop: 2, push: 4},
	OpBuildList:         {arg: argCount, popN: 1, push: 1},
	OpBuildTuple:        {arg: argCount, popN: 1, push: 1},
	OpBuildDict:         {arg: argCount, popN: 2, push: 1},
	OpBuildClass:        {arg: argCount, pop: 2, popN: 2, push: 1},
	OpIndexGet:          {pop: 2, push: 1},
	OpIndexSet:          {pop: 3},
	OpSliceGet:          {pop: 3, push: 1},
	OpDelIndex:          {pop: 2},
	OpGetIter:           {pop: 1, push: 1},
	OpForIter:           {arg: argTarget, pop: 1, push: 2},
	OpMakeFunction:      {arg: argCode, popN: 1, push: 1},
	OpUnpack:            {arg: argCount, pop: 1, pushN: 1},
	OpLoadLocalPair:     {arg: argLocalPair, push: 2},
	OpLoadLocalConst:    {arg: argLocalConst, push: 2},
	OpBinaryJumpIfFalse: {arg: argBinOpTarget, pop: 2},
}

// operand is what a register instruction's A, B or C addresses.
type operand uint8

const (
	oNone  operand = iota
	oReg           // one register
	oLocal         // a local slot's register
	oPair          // registers r and r+1
	oBlock         // registers r .. r+size-1, the size set by the op's count
)

// rFormat is one register opcode's format. A block operand spans blk +
// blkN*count registers. quick marks the forms only quickening produces.
type rFormat struct {
	arg       argKind
	a, b, c   operand
	blk, blkN int8
	quick     bool
}

var rFormats = [256]rFormat{
	RopNop:               {},
	RopLoadConst:         {arg: argConst, a: oReg},
	RopLoadLocal:         {arg: argLocal, a: oReg, b: oLocal},
	RopStoreLocal:        {arg: argLocal, a: oLocal, b: oReg},
	RopLoadGlobal:        {arg: argName, a: oReg},
	RopStoreGlobal:       {arg: argName, a: oReg},
	RopLoadCell:          {arg: argCell, a: oReg},
	RopStoreCell:         {arg: argCell, a: oReg},
	RopPushCell:          {arg: argCell, a: oReg},
	RopLoadAttr:          {arg: argName, a: oReg, b: oReg},
	RopStoreAttr:         {arg: argName, a: oReg, b: oReg},
	RopBinary:            {arg: argBinOp, a: oReg, b: oReg, c: oReg},
	RopUnary:             {arg: argUnOp, a: oReg, b: oReg},
	RopJump:              {arg: argTarget},
	RopJumpIfFalse:       {arg: argTarget, a: oReg},
	RopJumpIfTrue:        {arg: argTarget, a: oReg},
	RopJumpIfFalseKeep:   {arg: argTarget, a: oReg},
	RopJumpIfTrueKeep:    {arg: argTarget, a: oReg},
	RopCall:              {arg: argCount, a: oBlock, b: oReg, blk: 1, blkN: 1},
	RopReturn:            {a: oReg},
	RopDrop:              {a: oReg},
	RopDup:               {a: oReg, b: oReg},
	RopDup2:              {a: oPair, b: oPair},
	RopBuildList:         {arg: argCount, a: oBlock, b: oReg, blkN: 1},
	RopBuildTuple:        {arg: argCount, a: oBlock, b: oReg, blkN: 1},
	RopBuildDict:         {arg: argCount, a: oBlock, blkN: 2},
	RopBuildClass:        {arg: argCount, a: oBlock, blk: 2, blkN: 2},
	RopIndexGet:          {a: oReg, b: oReg, c: oReg},
	RopIndexSet:          {a: oReg, b: oReg, c: oReg},
	RopSliceGet:          {a: oReg, b: oReg, c: oReg},
	RopDelIndex:          {a: oReg, b: oReg},
	RopGetIter:           {a: oReg, b: oReg},
	RopForIter:           {arg: argTarget, a: oPair},
	RopMakeFunction:      {arg: argCode, a: oBlock, blkN: 1},
	RopUnpack:            {arg: argCount, a: oBlock, blkN: 1},
	RopLoadLocalPair:     {arg: argLocalPair, a: oPair, b: oLocal, c: oLocal},
	RopLoadLocalConst:    {arg: argLocalConst, a: oPair, b: oLocal},
	RopBinaryJumpIfFalse: {arg: argBinOpTarget, a: oReg, b: oReg},

	RopBinaryII:            {arg: argBinOp, a: oReg, b: oReg, c: oReg, quick: true},
	RopBinaryFF:            {arg: argBinOp, a: oReg, b: oReg, c: oReg, quick: true},
	RopBinaryJumpIfFalseII: {arg: argBinOpTarget, a: oReg, b: oReg, quick: true},
	RopForIterRange:        {arg: argTarget, a: oPair, quick: true},
}

// target returns the jump target an Arg of kind k holds, if it holds one.
func (k argKind) target(arg int32) (int, bool) {
	switch k {
	case argTarget:
		return int(arg), true
	case argBinOpTarget:
		return int(arg >> 4), true
	}
	return 0, false
}

// setTarget returns arg with its jump target replaced by t.
func (k argKind) setTarget(arg int32, t int) int32 {
	switch k {
	case argTarget:
		return int32(t)
	case argBinOpTarget:
		return arg&0xF | int32(t)<<4
	}
	return arg
}

// Target returns the pc in may jump to, and false when in does not branch.
func (in Instr) Target() (int, bool) { return opFormats[in.Op].arg.target(in.Arg) }

// SetTarget points a branch at pc t. It leaves any other instruction as it is.
func (in *Instr) SetTarget(t int) { in.Arg = opFormats[in.Op].arg.setTarget(in.Arg, t) }

// Target returns the pc in may jump to, and false when in does not branch.
func (in RInstr) Target() (int, bool) { return rFormats[in.Op].arg.target(in.Arg) }

// SetTarget points a branch at pc t. It leaves any other instruction as it is.
func (in *RInstr) SetTarget(t int) { in.Arg = rFormats[in.Op].arg.setTarget(in.Arg, t) }

// locals returns the local slots an Arg of kind k names.
func (k argKind) locals(arg int32) (slots [2]int, n int) {
	a := int(arg)
	switch k {
	case argLocal:
		return [2]int{a}, 1
	case argLocalPair:
		return [2]int{a & 0xFFF, a >> 12}, 2
	case argLocalConst:
		return [2]int{a & 0xFFF}, 1
	}
	return slots, 0
}

// Locals returns the local slots in's Arg names: LOAD_LOCAL's and
// STORE_LOCAL's one, LOAD_LOCAL_PAIR's two, LOAD_LOCAL_CONST's one.
func (in Instr) Locals() (slots [2]int, n int) { return opFormats[in.Op].arg.locals(in.Arg) }

// EndsBlock reports whether op ends a basic block: it may jump, or
// control never reaches the next pc.
func (op Op) EndsBlock() bool {
	f := &opFormats[op]
	return f.noFall || f.arg == argTarget || f.arg == argBinOpTarget
}

// Succs returns the pcs control can reach once in has run at pc: the jump
// target first, then pc+1 when the op falls through to a pc other than
// its target.
func (in Instr) Succs(pc int) (succ [2]int, n int) {
	f := &opFormats[in.Op]
	t, jumps := f.arg.target(in.Arg)
	switch {
	case f.noFall:
		if jumps {
			return [2]int{t}, 1
		}
		return succ, 0
	case jumps && t != pc+1:
		return [2]int{t, pc + 1}, 2
	}
	return [2]int{pc + 1}, 1
}

// markTargets sets mark[t] for every pc t some instruction of ops jumps to
// and returns mark, allocating it when it is shorter than ops. Every target
// must be a pc of ops, and mark must be all false. A rewrite must not
// absorb a marked instruction into the one before it: control can land on
// it without running that one.
func markTargets[I interface{ Target() (int, bool) }](ops []I, mark []bool) []bool {
	if len(mark) < len(ops) {
		mark = make([]bool, len(ops))
	}
	for _, in := range ops {
		if t, ok := in.Target(); ok {
			mark[t] = true
		}
	}
	return mark
}

// retarget points every branch of ops at to(t) instead of its target t.
func retarget[I any, P interface {
	*I
	Target() (int, bool)
	SetTarget(int)
}](ops []I, to func(int) int) {
	for i := range ops {
		p := P(&ops[i])
		if t, ok := p.Target(); ok {
			p.SetTarget(to(t))
		}
	}
}

// count is the n of a count op's format: its Arg, or for MAKE_FUNCTION
// the free-variable count of the function it makes. arg must have passed
// checkArg.
func count(code *Code, k argKind, arg int32) int {
	if k == argCode {
		return len(code.Consts[arg].(*Code).FreeNames)
	}
	return int(arg)
}

// effect returns how many operands the stack op pops, and how many it then
// pushes on the fall-through and on the jump path.
func (f *opFormat) effect(code *Code, arg int32) (pop, push, jump int) {
	n := count(code, f.arg, arg)
	return int(f.pop) + int(f.popN)*n, int(f.push) + int(f.pushN)*n, int(f.jump)
}

// checkArg reports whether arg is a valid Arg of kind k in code, where n is
// the length of the instruction stream a jump target must land in.
func checkArg(code *Code, k argKind, arg int32, n int) error {
	a := int(arg)
	switch k {
	case argConst:
		return inRange("const index", a, len(code.Consts))
	case argCode:
		if err := inRange("const index", a, len(code.Consts)); err != nil {
			return err
		}
		if _, ok := code.Consts[a].(*Code); !ok {
			return fmt.Errorf("const %d is not code", a)
		}
	case argLocal, argLocalPair, argLocalConst:
		slots, m := k.locals(arg)
		for _, slot := range slots[:m] {
			if err := inRange("local slot", slot, len(code.LocalNames)); err != nil {
				return err
			}
		}
		if k == argLocalConst {
			return inRange("const index", a>>12, len(code.Consts))
		}
	case argName:
		return inRange("name index", a, len(code.Names))
	case argCell:
		if a < 0 || a >= code.NumCells() {
			return fmt.Errorf("cell index %d out of range (%d cells)", a, code.NumCells())
		}
	case argTarget:
		return inRange("jump target", a, n)
	case argBinOp:
		if a < 0 || a > int(BinIn) {
			return fmt.Errorf("binary sub-op %d invalid", a)
		}
	case argUnOp:
		if a < 0 || a > int(UnPos) {
			return fmt.Errorf("unary sub-op %d invalid", a)
		}
	case argCount:
		if a < 0 {
			return fmt.Errorf("negative count %d", a)
		}
	case argBinOpTarget:
		if a&0xF > int(BinIn) {
			return fmt.Errorf("binary sub-op %d invalid", a&0xF)
		}
		return inRange("jump target", a>>4, n)
	}
	return nil
}

func inRange(what string, i, n int) error {
	if i < 0 || i >= n {
		return fmt.Errorf("%s %d out of range", what, i)
	}
	return nil
}

// checkFrame reports whether the tables a frame of code is built from
// agree with its ops: one line per op, and every cell-boxed local a local.
func checkFrame(code *Code) error {
	if len(code.Lines) != len(code.Ops) {
		return fmt.Errorf("%d line entries for %d ops", len(code.Lines), len(code.Ops))
	}
	for _, slot := range code.CellLocals {
		if slot < 0 || slot >= len(code.LocalNames) {
			return fmt.Errorf("cell local slot %d out of range (%d locals)", slot, len(code.LocalNames))
		}
	}
	return nil
}

// checkOperand reports whether register operand r of kind k lies in rc's
// register file; size is a block operand's register count.
func (rc *RCode) checkOperand(k operand, r int32, size int) error {
	lo, hi, limit := int(r), int(r), rc.NumRegs
	switch k {
	case oNone:
		return nil
	case oLocal:
		limit = rc.NumLocals
	case oPair:
		hi++
	case oBlock:
		hi = max(hi, lo+size-1)
	}
	switch {
	case lo >= 0 && hi < limit:
		return nil
	case k == oLocal:
		return fmt.Errorf("local register r%d out of range (%d locals)", r, limit)
	case lo == hi:
		return fmt.Errorf("register r%d out of range (%d regs)", r, limit)
	}
	return fmt.Errorf("registers r%d..r%d out of range (%d regs)", lo, hi, limit)
}
