package vm

import "repro/internal/minipy"

// The cost model assigns each bytecode operation an abstract machine
// instruction count. The interpreter pays a dispatch overhead per op on top
// (fetch/decode/indirect-jump), like CPython's eval loop; code running inside
// a compiled JIT trace pays a reduced, specialized cost, like PyPy's
// meta-traces. Cycle accounting starts at one cycle per instruction and the
// microarchitectural Probe adds stall cycles for cache misses and branch
// mispredictions.

// baseInstr is the work (in abstract instructions) each opcode performs,
// excluding dispatch. Sized 256 (not NumOps) so indexing with a uint8
// opcode needs no bounds check in the dispatch loop; entries past NumOps
// are zero and unreachable (the verifier rejects unknown opcodes).
var baseInstr = [256]uint32{
	minipy.OpNop:             1,
	minipy.OpLoadConst:       4,
	minipy.OpLoadLocal:       4,
	minipy.OpStoreLocal:      4,
	minipy.OpLoadGlobal:      16,
	minipy.OpStoreGlobal:     16,
	minipy.OpLoadCell:        7,
	minipy.OpStoreCell:       7,
	minipy.OpPushCell:        5,
	minipy.OpLoadAttr:        26,
	minipy.OpStoreAttr:       22,
	minipy.OpBinary:          20,
	minipy.OpUnary:           10,
	minipy.OpJump:            2,
	minipy.OpJumpIfFalse:     7,
	minipy.OpJumpIfTrue:      7,
	minipy.OpJumpIfFalseKeep: 7,
	minipy.OpJumpIfTrueKeep:  7,
	minipy.OpCall:            65,
	minipy.OpReturn:          22,
	minipy.OpPop:             2,
	minipy.OpDup:             3,
	minipy.OpDup2:            4,
	minipy.OpBuildList:       28,
	minipy.OpBuildTuple:      24,
	minipy.OpBuildDict:       40,
	minipy.OpBuildClass:      120,
	minipy.OpIndexGet:        24,
	minipy.OpIndexSet:        24,
	minipy.OpSliceGet:        44,
	minipy.OpDelIndex:        28,
	minipy.OpGetIter:         20,
	minipy.OpForIter:         14,
	minipy.OpMakeFunction:    34,
	minipy.OpUnpack:          18,

	// Superinstructions cost the sum of their components' base work, but pay
	// dispatch overhead only once — that single saved dispatch is exactly the
	// effect the A7 ablation measures.
	minipy.OpLoadLocalPair:     8,  // 2 × LOAD_LOCAL
	minipy.OpLoadLocalConst:    8,  // LOAD_LOCAL + LOAD_CONST
	minipy.OpBinaryJumpIfFalse: 27, // BINARY + JUMP_IF_FALSE
}

// CostParams configures the engine cost model. The zero value is not usable;
// call DefaultCostParams.
type CostParams struct {
	// DispatchOverhead is the per-op interpreter dispatch cost in
	// instructions (fetch, decode, indirect jump). The dispatch-sensitivity
	// ablation sweeps this.
	DispatchOverhead uint32
	// JITDivisor scales down per-op cost inside compiled traces: a trace op
	// costs max(1, (base+DispatchOverhead)/JITDivisor) instructions.
	JITDivisor uint32
	// JITThreshold is the back-edge count that triggers trace compilation.
	JITThreshold int
	// CompileCostPerOp is the one-off compile pause, in cycles, charged per
	// bytecode op in the compiled region.
	CompileCostPerOp uint64
	// GuardFailPenalty is the cycle cost of a side-exit from a trace.
	GuardFailPenalty uint64
	// GuardFailLimit is how many side exits a branch may take before a
	// bridge trace is attached (after which both directions are cheap).
	GuardFailLimit int
	// BridgeCompileCost is the pause charged when a bridge is compiled.
	BridgeCompileCost uint64
	// InlineCache enables the specializing-interpreter cost model (CPython
	// 3.11-style): name/attribute/arith/call sites become cheaper after a
	// short per-site warmup. Applies to the interpreter only; the JIT
	// already subsumes it inside traces.
	InlineCache bool
	// ICWarmup is the per-site execution count before specialization.
	// Zero means 2.
	ICWarmup uint8
	// ICDivisor scales down the base (non-dispatch) cost of specialized
	// sites. Zero means 3.
	ICDivisor uint32
}

// DefaultCostParams returns the calibrated default cost model, loosely
// matching published CPython-vs-PyPy behaviour: interpreter dispatch is a
// large fraction of per-op cost, and hot traces run roughly 6-8x fewer
// instructions per op.
func DefaultCostParams() CostParams {
	return CostParams{
		DispatchOverhead:  9,
		JITDivisor:        7,
		JITThreshold:      16,
		CompileCostPerOp:  420,
		GuardFailPenalty:  180,
		GuardFailLimit:    12,
		BridgeCompileCost: 5200,
		ICWarmup:          2,
		ICDivisor:         3,
	}
}

// icSpecializable reports whether an opcode benefits from inline caching:
// the dynamic-lookup sites a specializing interpreter rewrites.
func icSpecializable(op minipy.Op) bool {
	switch op {
	case minipy.OpLoadGlobal, minipy.OpStoreGlobal, minipy.OpLoadAttr,
		minipy.OpStoreAttr, minipy.OpBinary, minipy.OpIndexGet,
		minipy.OpIndexSet, minipy.OpCall:
		return true
	}
	return false
}

// opCosts is a per-opcode instruction charge, precomputed from the cost
// parameters so the dispatch loop indexes instead of dividing. Sized 256,
// like baseInstr, so a uint8 opcode indexes it without a bounds check.
type opCosts [256]uint64

// fillTrace sets each opcode's in-trace charge,
// max(1, (base+DispatchOverhead)/JITDivisor). The sum wraps in uint32, as
// the charge outside a trace does.
func (t *opCosts) fillTrace(p CostParams) {
	for op, base := range baseInstr {
		t[op] = max(1, uint64(base+p.DispatchOverhead)/uint64(p.JITDivisor))
	}
}

// fillIC sets each opcode's charge at a warmed-up inline-cache site,
// max(1, dispatch + base/divisor).
func (t *opCosts) fillIC(dispatch, divisor uint32) {
	for op, base := range baseInstr {
		t[op] = max(1, uint64(dispatch)+uint64(base)/uint64(divisor))
	}
}

// icWarming flags a codeState.charge entry whose instruction is an
// inline-cache site still counting its executions: the dispatch loop then
// calls warm. Charges stay far below it (a covered op charges under 2^34).
const icWarming = 1 << 63

// chargeRange sums what the source ops [lo, hi) of st's code charge now:
// the in-trace cost once a compiled trace covers the op, the specialized
// cost once its inline-cache site is warm, and its base work plus dispatch
// otherwise.
func (in *Interp) chargeRange(st *codeState, lo, hi int) uint64 {
	var sum uint64
	for pc := lo; pc < hi; pc++ {
		op := st.rc.Code.Ops[pc].Op
		switch {
		case st.jit != nil && st.jit[pc].compiled:
			sum += in.jit.traceCost[op]
		case st.ic != nil && icSpecializable(op) && st.ic[pc] >= in.icWarmup:
			sum += in.icCost[op]
		default:
			sum += uint64(baseInstr[op] + in.cost.DispatchOverhead)
		}
	}
	return sum
}

// recharge recomputes the charges of instructions [lo, hi) of st's
// register stream from the source ops each covers, flagging an
// inline-cache site that is still counting.
func (in *Interp) recharge(st *codeState, lo, hi int) {
	for k := lo; k < hi; k++ {
		ins := &st.rc.Ops[k]
		o := int(ins.Orig)
		c := in.chargeRange(st, o-int(ins.Pre), o+int(ins.Post)+1)
		if st.ic != nil && icSpecializable(ins.Src) && st.ic[o] < in.icWarmup &&
			(st.jit == nil || !st.jit[o].compiled) {
			c |= icWarming
		}
		st.charge[k] = c
	}
}

// warm counts one execution of the inline-cache site at instruction k,
// which still charges its unspecialized cost, and rewrites k's charge once
// the site is warm.
func (in *Interp) warm(st *codeState, k int) uint64 {
	c := st.charge[k] &^ icWarming
	o := st.rc.Ops[k].Orig
	st.ic[o]++
	if st.ic[o] >= in.icWarmup {
		in.recharge(st, k, k+1)
	}
	return c
}

// jitSite is the simulated JIT's bookkeeping for one source pc of one code
// object (codeState.jit): whether the pc lies in a compiled trace, the
// back-edge count while it is an uncompiled loop head, and its guard when
// it is a conditional branch inside a trace.
type jitSite struct {
	hot      int  // taken back edges to this loop head until it compiles
	fails    int  // side exits taken by this guard
	compiled bool // the pc lies in a compiled trace
	seen     bool // the guard has observed its first direction
	expect   bool // the direction the guard was trained on
	bridged  bool // a bridge covers the other direction
}

// jitState holds the simulated tracing JIT's parameters and statistics for
// one VM invocation; the per-pc bookkeeping lives with each code object's
// state. Both persist across benchmark iterations within the invocation —
// that persistence is what produces warmup curves.
type jitState struct {
	params    CostParams
	traceCost opCosts

	// Stats exposed for analysis.
	TracesCompiled  int
	BridgesCompiled int
	GuardFails      int
}

func newJITState(p CostParams) *jitState {
	j := &jitState{params: p}
	j.traceCost.fillTrace(p)
	return j
}

// onBackEdge records a taken back edge from source pc from to loop head to
// in the code object whose sites are given, and compiles the loop region
// when it becomes hot. It returns the compile-pause cycles to charge (0
// normally).
func (j *jitState) onBackEdge(sites []jitSite, from, to int32) uint64 {
	head := &sites[to]
	if head.compiled {
		return 0 // already compiled
	}
	head.hot++
	if head.hot < j.params.JITThreshold {
		return 0
	}
	for pc := to; pc <= from; pc++ {
		sites[pc].compiled = true
	}
	j.TracesCompiled++
	return uint64(from-to+1) * j.params.CompileCostPerOp
}

// onGuard models the guarded branch at source pc inside a compiled trace.
// It returns the stall cycles for side exits and bridge compilation.
func (j *jitState) onGuard(sites []jitSite, pc int32, taken bool) uint64 {
	g := &sites[pc]
	if g.bridged {
		return 0
	}
	if !g.seen {
		g.seen = true
		g.expect = taken
		return 0
	}
	if taken == g.expect {
		return 0
	}
	g.fails++
	j.GuardFails++
	if g.fails >= j.params.GuardFailLimit {
		g.bridged = true
		j.BridgesCompiled++
		return j.params.BridgeCompileCost
	}
	return j.params.GuardFailPenalty
}
