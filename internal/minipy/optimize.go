package minipy

import "fmt"

// The bytecode optimizer: an opt-in (-opt N) analysis-driven rewrite
// pipeline over compiled code objects. Unlike the engine's Tier-A host-level
// optimizations (frame pooling, inline caches, interning), these passes
// CHANGE the simulated opcode stream — fewer dispatches, fewer simulated
// instructions — so optimized runs are a separate, reportable experiment arm
// (ablation A7), never silently substituted for baseline runs.
//
// Levels:
//
//	0  no-op: the input code object is returned unchanged.
//	1  peephole passes that preserve the op vocabulary: constant folding
//	   of int⊙int expressions, dead-store elimination (driven by the
//	   liveness facts in OptFacts), push/pop cancellation, jump threading,
//	   and Nop compaction.
//	2  everything in 1 plus superinstruction fusion: adjacent pairs are
//	   fused into OpLoadLocalPair, OpLoadLocalConst, and
//	   OpBinaryJumpIfFalse, eliminating one dispatch per pair.
//
// Optimize never mutates its input: callers (the workload code cache) share
// the unoptimized *Code across experiment arms.

// MaxOptLevel is the highest optimization level Optimize accepts. Every
// surface that takes a level (pybench -opt, a campaign spec's opt) checks
// it against this range.
const MaxOptLevel = 2

// OptFacts carries analysis-derived facts consumed by Optimize. The facts
// are advisory: a nil or incomplete OptFacts simply disables the passes
// that need them (dead-store elimination). Keeping the struct here and the
// computation in internal/analysis avoids an import cycle — analysis
// imports minipy, not vice versa.
type OptFacts struct {
	// DeadStores[code][pc] marks an OpStoreLocal in the ORIGINAL (pre-
	// optimization) code object as provably dead: no execution path reads
	// the slot before the next store or frame exit. Pcs refer to the
	// original instruction stream, so dead-store elimination runs before
	// any pass that renumbers instructions.
	DeadStores map[*Code]map[int]bool
}

// FloorDivInt implements Python's // for int operands (rounds toward
// negative infinity). Shared by the VM and the constant folder so folded
// constants are bit-identical to runtime results.
func FloorDivInt(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// PyModInt implements Python's % for int operands (result takes the
// divisor's sign). Shared by the VM and the constant folder.
func PyModInt(a, b int64) int64 {
	m := a % b
	if m != 0 && (m < 0) != (b < 0) {
		m += b
	}
	return m
}

// Optimize returns an optimized deep copy of code at the given level,
// recursing into nested code objects in the constant pool. The returned
// code is verified (so MaxStack is set); the input is left untouched.
// Level <= 0 returns the input unchanged; a level above MaxOptLevel is an
// error.
func Optimize(code *Code, level int, facts *OptFacts) (*Code, error) {
	if level <= 0 {
		return code, nil
	}
	if level > MaxOptLevel {
		return nil, fmt.Errorf("opt level %d out of range 0..%d", level, MaxOptLevel)
	}
	out := optimizeClone(code, level, facts)
	if err := Verify(out); err != nil {
		return nil, err
	}
	return out, nil
}

// optimizeClone deep-copies one code object (and its nested codes) and runs
// the rewrite passes on the copy.
func optimizeClone(c *Code, level int, facts *OptFacts) *Code {
	nc := *c
	nc.Ops = append([]Instr(nil), c.Ops...)
	nc.Lines = append([]int32(nil), c.Lines...)
	nc.Consts = append([]Value(nil), c.Consts...)
	nc.MaxStack = 0 // recomputed by Verify
	for i, k := range nc.Consts {
		if sub, ok := k.(*Code); ok {
			nc.Consts[i] = optimizeClone(sub, level, facts)
		}
	}

	// Dead-store elimination first: the liveness facts are keyed by the
	// ORIGINAL code pointer and original pcs, which the fresh clone still
	// shares one-for-one.
	if facts != nil {
		if dead := facts.DeadStores[c]; len(dead) > 0 {
			eliminateDeadStores(&nc, dead)
		}
	}
	// Iterate folding + cancellation to a fixpoint: folding one expression
	// exposes the next ((1+2)+3 folds in two rounds once Nops compact away).
	for {
		compact(&nc)
		changed := foldConstants(&nc)
		changed = cancelPushPop(&nc) || changed
		if !changed {
			break
		}
	}
	threadJumps(&nc)
	compact(&nc)
	if level >= 2 {
		fuseSuperinstructions(&nc)
		compact(&nc)
	}
	return &nc
}

// eliminateDeadStores rewrites provably dead OpStoreLocal instructions to
// OpPop: the value is still consumed (stack shape unchanged) but the slot
// write — and its simulated store cost — disappears. The store's value
// computation is left in place; the push/pop canceller removes it when it
// is a bare constant load.
func eliminateDeadStores(c *Code, dead map[int]bool) {
	for pc := range c.Ops {
		if c.Ops[pc].Op == OpStoreLocal && dead[pc] {
			c.Ops[pc] = Instr{Op: OpPop}
		}
	}
}

// foldConstants rewrites LOAD_CONST a; LOAD_CONST b; BINARY op over int
// operands into a single LOAD_CONST of the result, when the operation
// cannot raise. The folded value is computed with the same helpers the VM
// uses, so optimized and baseline runs produce identical values.
func foldConstants(c *Code) bool {
	targets := markTargets(c.Ops, nil)
	changed := false
	for pc := 0; pc+2 < len(c.Ops); pc++ {
		if c.Ops[pc].Op != OpLoadConst || c.Ops[pc+1].Op != OpLoadConst ||
			c.Ops[pc+2].Op != OpBinary || targets[pc+1] || targets[pc+2] {
			continue
		}
		a, okA := c.Consts[c.Ops[pc].Arg].(Int)
		b, okB := c.Consts[c.Ops[pc+1].Arg].(Int)
		if !okA || !okB {
			continue
		}
		v, ok := foldIntBinary(BinOpCode(c.Ops[pc+2].Arg), int64(a), int64(b))
		if !ok {
			continue
		}
		c.Consts = append(c.Consts, v)
		c.Ops[pc] = Instr{Op: OpLoadConst, Arg: int32(len(c.Consts) - 1)}
		c.Ops[pc+1] = Instr{Op: OpNop}
		c.Ops[pc+2] = Instr{Op: OpNop}
		changed = true
		pc += 2
	}
	return changed
}

// foldIntBinary evaluates an int⊙int binary operation at compile time,
// mirroring the VM's intBinary semantics exactly. Operations that can raise
// (division by zero) or leave the int domain in surprising ways (power)
// report ok=false and stay in the instruction stream.
func foldIntBinary(op BinOpCode, x, y int64) (Value, bool) {
	switch op {
	case BinAdd:
		return IntValue(x + y), true
	case BinSub:
		return IntValue(x - y), true
	case BinMul:
		return IntValue(x * y), true
	case BinFloorDiv:
		if y == 0 {
			return nil, false
		}
		return IntValue(FloorDivInt(x, y)), true
	case BinMod:
		if y == 0 {
			return nil, false
		}
		return IntValue(PyModInt(x, y)), true
	case BinEq:
		return Bool(x == y), true
	case BinNe:
		return Bool(x != y), true
	case BinLt:
		return Bool(x < y), true
	case BinLe:
		return Bool(x <= y), true
	case BinGt:
		return Bool(x > y), true
	case BinGe:
		return Bool(x >= y), true
	}
	return nil, false
}

// cancelPushPop removes LOAD_CONST; POP pairs (a side-effect-free push
// immediately discarded — the shape dead-store elimination leaves behind
// for constant stores). Loads that can raise (locals, globals, attributes)
// are never candidates: removing them would suppress a runtime error.
func cancelPushPop(c *Code) bool {
	targets := markTargets(c.Ops, nil)
	changed := false
	for pc := 0; pc+1 < len(c.Ops); pc++ {
		if c.Ops[pc].Op == OpLoadConst && c.Ops[pc+1].Op == OpPop && !targets[pc+1] {
			c.Ops[pc] = Instr{Op: OpNop}
			c.Ops[pc+1] = Instr{Op: OpNop}
			changed = true
			pc++
		}
	}
	return changed
}

// threadJumps retargets jumps whose destination is an unconditional JUMP,
// following chains to their final destination (with a visited guard against
// jump cycles).
func threadJumps(c *Code) {
	retarget(c.Ops, func(t int) int {
		for seen := 0; t < len(c.Ops) && c.Ops[t].Op == OpJump && seen < len(c.Ops); seen++ {
			t, _ = c.Ops[t].Target()
		}
		return t
	})
}

// fuseSuperinstructions greedily rewrites adjacent pairs into fused ops.
// The second instruction of a fused pair must not be a jump target, and
// packed arguments must fit their bit fields; pairs that fail either check
// are left unfused.
func fuseSuperinstructions(c *Code) {
	targets := markTargets(c.Ops, nil)
	for pc := 0; pc+1 < len(c.Ops); pc++ {
		a, b := c.Ops[pc], c.Ops[pc+1]
		if targets[pc+1] {
			continue
		}
		switch {
		case a.Op == OpLoadLocal && b.Op == OpLoadLocal &&
			a.Arg < 1<<12 && b.Arg < 1<<12:
			c.Ops[pc] = Instr{Op: OpLoadLocalPair, Arg: a.Arg | b.Arg<<12}
			c.Ops[pc+1] = Instr{Op: OpNop}
			pc++
		case a.Op == OpLoadLocal && b.Op == OpLoadConst &&
			a.Arg < 1<<12 && b.Arg < 1<<19:
			c.Ops[pc] = Instr{Op: OpLoadLocalConst, Arg: a.Arg | b.Arg<<12}
			c.Ops[pc+1] = Instr{Op: OpNop}
			pc++
		case a.Op == OpBinary && b.Op == OpJumpIfFalse &&
			a.Arg < 1<<4 && b.Arg < 1<<27:
			c.Ops[pc] = Instr{Op: OpBinaryJumpIfFalse, Arg: a.Arg}
			c.Ops[pc].SetTarget(int(b.Arg))
			c.Ops[pc+1] = Instr{Op: OpNop}
			pc++
		}
	}
}

// compact removes OpNop instructions and renumbers every jump target. A
// target that pointed at a removed Nop lands on the next surviving
// instruction, which is semantically identical.
func compact(c *Code) {
	n := len(c.Ops)
	newPC := make([]int, n)
	j := 0
	hasNop := false
	for i, ins := range c.Ops {
		newPC[i] = j
		if ins.Op == OpNop {
			hasNop = true
		} else {
			j++
		}
	}
	if !hasNop {
		return
	}
	ops := make([]Instr, 0, j)
	lines := make([]int32, 0, j)
	for i, ins := range c.Ops {
		if ins.Op == OpNop {
			continue
		}
		ops = append(ops, ins)
		lines = append(lines, c.Lines[i])
	}
	retarget(ops, func(t int) int { return newPC[t] })
	c.Ops, c.Lines = ops, lines
}
