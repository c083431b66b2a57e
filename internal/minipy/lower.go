package minipy

import (
	"cmp"
	"fmt"
	"slices"
)

// LowerToRegister lowers verified stack bytecode to register form.
//
// The lowering is 1:1 and pc-preserving: instruction i of the register code
// implements instruction i of the stack code, and every jump target is
// unchanged. Registers 0..L-1 (L = len(LocalNames)) alias the local slots;
// register L+d holds the value the stack machine would have at operand
// depth d. The verifier's join-consistency invariant makes that mapping a
// static function of pc, so no runtime stack pointer exists at all.
//
// Because the executed instruction sequence, the per-op cost keys (Src),
// the immediates (Arg) and the control-flow targets are all identical to
// the stack form, the VM's simulated counters, probe events and tracer
// streams are those of the stack program by construction; register form
// only removes host work (no push/pop slice traffic, tagged unboxed
// register slots). Stream-changing optimizations live in ElideMoves and
// are opt-in.
//
// Lowering shares the verifier's checks and depth computation
// (stackDepths); code that fails them (a bad operand, an unbalanced stack,
// an inconsistent join) returns the verifier's error, which the VM reports
// to the caller that tried to run the code object.
//
// The result is a value, so an owner that keeps it (the VM lowers each
// code object once per interpreter) pays only for its two slices.
func LowerToRegister(code *Code) (RCode, error) {
	depth, err := stackDepths(code)
	if err != nil {
		return RCode{}, err
	}
	L := len(code.LocalNames)
	rc := RCode{
		Code:      code,
		NumLocals: L,
		NumRegs:   L + maxDepth(depth),
		Ops:       make([]RInstr, len(code.Ops)),
		Depth:     depth,
	}
	for pc, ins := range code.Ops {
		d := depth[pc]
		if d < 0 {
			// Unreachable: keep the pc slot (1:1 mapping) but never execute.
			rc.Ops[pc] = RInstr{Op: RopNop, Src: OpNop, Orig: int32(pc)}
			continue
		}
		ri, err := lowerOne(code, ins, int32(L), d)
		if err != nil {
			return RCode{}, fmt.Errorf("minipy: lower %s at pc %d: %w", code.Name, pc, err)
		}
		ri.Orig = int32(pc)
		rc.Ops[pc] = ri
	}
	return rc, nil
}

// lowerOne maps one stack instruction at entry depth d to register form.
// reg(k) = L + k is the register holding operand-stack depth k.
func lowerOne(code *Code, ins Instr, L, d int32) (RInstr, error) {
	reg := func(k int32) int32 { return L + k }
	arg := ins.Arg
	ri := RInstr{Src: ins.Op, Arg: arg}
	switch ins.Op {
	case OpNop:
		ri.Op = RopNop
	case OpLoadConst:
		ri.Op, ri.A = RopLoadConst, reg(d)
	case OpLoadLocal:
		ri.Op, ri.A, ri.B = RopLoadLocal, reg(d), arg
	case OpStoreLocal:
		ri.Op, ri.A, ri.B = RopStoreLocal, arg, reg(d-1)
	case OpLoadGlobal:
		ri.Op, ri.A = RopLoadGlobal, reg(d)
	case OpStoreGlobal:
		ri.Op, ri.A = RopStoreGlobal, reg(d-1)
	case OpLoadCell:
		ri.Op, ri.A = RopLoadCell, reg(d)
	case OpStoreCell:
		ri.Op, ri.A = RopStoreCell, reg(d-1)
	case OpPushCell:
		ri.Op, ri.A = RopPushCell, reg(d)
	case OpLoadAttr:
		ri.Op, ri.A, ri.B = RopLoadAttr, reg(d-1), reg(d-1)
	case OpStoreAttr:
		ri.Op, ri.A, ri.B = RopStoreAttr, reg(d-2), reg(d-1)
	case OpBinary:
		ri.Op, ri.A, ri.B, ri.C = RopBinary, reg(d-2), reg(d-1), reg(d-2)
	case OpUnary:
		ri.Op, ri.A, ri.B = RopUnary, reg(d-1), reg(d-1)
	case OpJump:
		ri.Op = RopJump
	case OpJumpIfFalse:
		ri.Op, ri.A = RopJumpIfFalse, reg(d-1)
	case OpJumpIfTrue:
		ri.Op, ri.A = RopJumpIfTrue, reg(d-1)
	case OpJumpIfFalseKeep:
		ri.Op, ri.A = RopJumpIfFalseKeep, reg(d-1)
	case OpJumpIfTrueKeep:
		ri.Op, ri.A = RopJumpIfTrueKeep, reg(d-1)
	case OpCall:
		ri.Op, ri.A, ri.B = RopCall, reg(d-1-arg), reg(d-1-arg)
	case OpReturn:
		ri.Op, ri.A = RopReturn, reg(d-1)
	case OpPop:
		ri.Op, ri.A = RopDrop, reg(d-1)
	case OpDup:
		ri.Op, ri.A, ri.B = RopDup, reg(d), reg(d-1)
	case OpDup2:
		ri.Op, ri.A, ri.B = RopDup2, reg(d), reg(d-2)
	case OpBuildList:
		ri.Op, ri.A, ri.B = RopBuildList, reg(d-arg), reg(d-arg)
	case OpBuildTuple:
		ri.Op, ri.A, ri.B = RopBuildTuple, reg(d-arg), reg(d-arg)
	case OpBuildDict:
		ri.Op, ri.A = RopBuildDict, reg(d-2*arg)
	case OpBuildClass:
		ri.Op, ri.A = RopBuildClass, reg(d-2*arg-2)
	case OpIndexGet:
		ri.Op, ri.A, ri.B, ri.C = RopIndexGet, reg(d-2), reg(d-1), reg(d-2)
	case OpIndexSet:
		ri.Op, ri.A, ri.B, ri.C = RopIndexSet, reg(d-3), reg(d-2), reg(d-1)
	case OpSliceGet:
		ri.Op, ri.A, ri.B, ri.C = RopSliceGet, reg(d-3), reg(d-2), reg(d-1)
	case OpDelIndex:
		ri.Op, ri.A, ri.B = RopDelIndex, reg(d-2), reg(d-1)
	case OpGetIter:
		ri.Op, ri.A = RopGetIter, reg(d-1)
	case OpForIter:
		ri.Op, ri.A = RopForIter, reg(d-1)
	case OpMakeFunction:
		sub, ok := code.Consts[arg].(*Code)
		if !ok {
			return ri, fmt.Errorf("MAKE_FUNCTION const %d is not code", arg)
		}
		ri.Op, ri.A = RopMakeFunction, reg(d-int32(len(sub.FreeNames)))
	case OpUnpack:
		ri.Op, ri.A = RopUnpack, reg(d-1)
	case OpLoadLocalPair:
		ri.Op, ri.A, ri.B, ri.C = RopLoadLocalPair, reg(d), arg&0xFFF, arg>>12
	case OpLoadLocalConst:
		ri.Op, ri.A, ri.B = RopLoadLocalConst, reg(d), arg&0xFFF
	case OpBinaryJumpIfFalse:
		ri.Op, ri.A, ri.B = RopBinaryJumpIfFalse, reg(d-2), reg(d-1)
	default:
		return ri, fmt.Errorf("unknown opcode %v", ins.Op)
	}
	return ri, nil
}

// ElideMoves is the stream-changing register optimization: it
// copy-propagates register moves into their adjacent consumer and deletes
// the move, compacting rc in place. Two patterns, both classic
// stack→register lowering wins:
//
//   - RLOAD_LOCAL r_s <- r_l followed by a consumer reading r_s: the
//     consumer reads the local register r_l directly and the load vanishes.
//     Because the elided load carried the unassigned-local check, only
//     loads of locals proven definitely assigned at that pc (params, or
//     stores dominating the load) are elided.
//   - a producer whose destination register is retargetable, followed by
//     RSTORE_LOCAL r_l <- dst: the producer writes r_l directly and the
//     store vanishes.
//
// A consumer (or store) that is a jump target keeps its moves: another
// path could arrive with a live value in the stack register. Deleting
// instructions renumbers pcs, so every jump target is remapped and Orig
// keeps the source pc for line attribution and pc-keyed engine state.
//
// Each kept instruction records the moves it absorbed in RInstr.Pre and
// RInstr.Post: an elided load is covered by the kept instruction after it
// (its consumer, or the constant load the read was forwarded across), and
// an elided store by the producer before it. So every kept instruction
// covers a contiguous run of source pcs that always executes as a whole
// (an elided move can neither raise nor branch), and a jump target's first
// covered pc is the target's own source pc.
//
// The VM runs this stream in every interpreter without an observer and
// charges each kept instruction for the source ops it covers, so the
// simulated counters stay the stack program's; ablation A9 runs it
// charging only the instructions it executes. Code of fewer than
// elideStackOps instructions is elided without allocating.
func ElideMoves(rc *RCode) {
	ops := rc.Ops
	n := len(ops)
	var targetBuf [elideStackOps]bool
	isTarget := markTargets(ops, targetBuf[:])
	var assignedBuf [elideStackOps]uint64
	assigned := definitelyAssigned(rc.Code, assignedBuf[:])
	w := 0        // the kept stream is compacted into ops[:w]
	var pre uint8 // elided loads the next kept instruction covers
	for i := 0; i < n; i++ {
		cur := ops[i]
		if i+1 < n {
			next := ops[i+1]
			// Load elision: forward the local register into the consumer.
			if cur.Op == RopLoadLocal && !isTarget[i+1] &&
				assigned != nil && assigned[i]&(1<<uint(cur.B)) != 0 {
				if c, ok := replaceRead(next, cur.A, cur.B); ok {
					ops[i+1] = c
					pre++
					continue
				}
				// The dominant `local ⊙ const` shape puts one RLOAD_CONST
				// between the load and its consumer. A constant load is
				// transparent — it cannot raise, branch, or touch the
				// forwarded registers — so the local read forwards across it.
				if i+2 < n && next.Op == RopLoadConst && next.A != cur.A &&
					!isTarget[i+2] {
					if c, ok := replaceRead(ops[i+2], cur.A, cur.B); ok {
						ops[i+2] = c
						pre++
						continue
					}
				}
			}
			// Store elision: retarget the producer's destination to the local.
			if next.Op == RopStoreLocal && !isTarget[i+1] {
				if c, ok := retargetDst(cur, next.B, next.A); ok {
					cur = c
					cur.Post = 1
					i++ // the store is consumed; don't pair it with a successor
				}
			}
		}
		cur.Pre, pre = pre, 0
		ops[w] = cur
		w++
	}
	// Renumber: an old target maps to the first kept instruction at or
	// after it. Kept Origs are the old indices, in increasing order.
	ops = ops[:w]
	retarget(ops, func(t int) int { return keptIndex(ops, t) })
	rc.Ops = ops
	rc.Elided = true
}

// elideStackOps bounds the code size ElideMoves handles with scratch on
// its own stack.
const elideStackOps = 512

// keptIndex returns the index of the first instruction of kept whose
// source pc is at least pc (len(kept) when none is).
func keptIndex(kept []RInstr, pc int) int {
	i, _ := slices.BinarySearchFunc(kept, pc, func(ins RInstr, pc int) int {
		return cmp.Compare(int(ins.Orig), pc)
	})
	return i
}

// replaceRead rewrites ins's read of register from to register to. Only
// pure-read operands of instructions whose full read set is statically
// known participate; anything with block operands (calls, builds, unpack),
// value-keeping branches, or an aliasing hazard declines.
func replaceRead(ins RInstr, from, to int32) (RInstr, bool) {
	switch ins.Op {
	case RopBinary, RopBinaryJumpIfFalse:
		// A and B are both pure reads (RopBinary writes C).
		if ins.B == from {
			ins.B = to
			return ins, true
		}
		if ins.A == from {
			ins.A = to
			return ins, true
		}
	// RopGetIter is deliberately absent: it is read-modify-write on A
	// (the iterator is written back in place for the RFOR_ITER header to
	// poll), so forwarding a local into A would leave the iterator in the
	// local register and the loop header reading an empty slot.
	case RopUnary, RopLoadAttr:
		if ins.A == from {
			ins.A = to
			return ins, true
		}
	case RopIndexGet:
		if ins.B == from {
			ins.B = to
			return ins, true
		}
		if ins.A == from {
			ins.A = to
			return ins, true
		}
	case RopStoreGlobal, RopStoreCell, RopReturn,
		RopJumpIfFalse, RopJumpIfTrue:
		if ins.A == from {
			ins.A = to
			return ins, true
		}
	case RopStoreLocal:
		if ins.B == from {
			ins.B = to
			return ins, true
		}
	// RopDup and RopDrop decline: DUP reads its source without consuming it
	// (the stack register stays live for a later reader), and DROP would
	// clear a live local register.
	case RopStoreAttr, RopIndexSet, RopDelIndex:
		if ins.B == from {
			ins.B = to
			return ins, true
		}
	}
	return ins, false
}

// retargetDst rewrites a producer so its result register dst becomes to,
// reporting whether the op's destination is independently retargetable
// (ops whose destination field doubles as an input decline).
func retargetDst(ins RInstr, dst, to int32) (RInstr, bool) {
	switch ins.Op {
	case RopLoadConst, RopLoadLocal, RopLoadGlobal, RopLoadCell, RopDup:
		if ins.A == dst {
			ins.A = to
			return ins, true
		}
	case RopBinary, RopIndexGet:
		if ins.C == dst {
			ins.C = to
			return ins, true
		}
	case RopUnary, RopLoadAttr, RopCall, RopBuildList, RopBuildTuple:
		if ins.B == dst {
			ins.B = to
			return ins, true
		}
	}
	return ins, false
}

// definitelyAssigned computes, per pc, the bitmask of local slots that are
// definitely assigned on entry to that pc (params at entry; intersection
// at joins), in buf when it is long enough. Returns nil when the code has
// more than 64 locals — elision then skips load forwarding rather than
// track wide bitsets.
func definitelyAssigned(code *Code, buf []uint64) []uint64 {
	if len(code.LocalNames) > 64 {
		return nil
	}
	n := len(code.Ops)
	const unknown = ^uint64(0)
	in := buf[:0]
	if cap(in) < n {
		in = make([]uint64, n)
	}
	in = in[:n]
	for i := range in {
		in[i] = unknown // top: not yet reached
	}
	var entry uint64
	for i := 0; i < code.NumParams; i++ {
		entry |= 1 << uint(i)
	}
	in[0] = entry
	// Round-robin to the fixpoint: the sets only shrink, so the passes
	// end, and they reach the same greatest solution a worklist would.
	changed := true
	propagate := func(to int, set uint64) {
		if to < 0 || to >= n {
			return
		}
		if merged := set & in[to]; merged != in[to] {
			in[to] = merged
			changed = true
		}
	}
	for changed {
		changed = false
		for pc, ins := range code.Ops {
			set := in[pc]
			if set == unknown {
				continue
			}
			if ins.Op == OpStoreLocal {
				set |= 1 << uint(ins.Arg)
			}
			succ, k := ins.Succs(pc)
			for _, to := range succ[:k] {
				propagate(to, set)
			}
		}
	}
	for i := range in {
		if in[i] == unknown {
			in[i] = 0
		}
	}
	return in
}
