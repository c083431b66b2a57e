package vm

import "repro/internal/minipy"

// Tracer observes execution at source granularity — the sibling of Probe.
// Where Probe models microarchitecture (and feeds stall cycles back into
// the simulation), Tracer is purely passive: it watches frames and executed
// ops so a profiler (internal/profile) can attribute simulated cost to
// source lines, functions, and call stacks.
//
// A nil Tracer is free: the engine checks one cached local per frame and
// per op, exactly like the Probe hook, and the hot path allocates nothing
// extra (guarded by TestNilHooksZeroAllocsPerIteration and
// BenchmarkIterationNilHooks).
type Tracer interface {
	// OnEnter is called when a frame for code is pushed (function call or
	// module execution), before its first op executes.
	OnEnter(code *minipy.Code)
	// OnOp is called once per executed bytecode op with its program
	// counter and the base cycles charged for it (post inline-cache and
	// JIT-trace adjustment; probe-attributed stalls are accounted
	// separately by the Probe path). code.Lines[pc] maps the op to its
	// source line.
	OnOp(code *minipy.Code, pc int, op minipy.Op, cycles uint64)
	// OnExit is called when the frame is popped, on normal return and on
	// error unwinds alike, so enter/exit events always balance.
	OnExit(code *minipy.Code)
}

// ValueTracer is an optional Tracer extension for observers that need to
// see runtime VALUES, not just executed pcs — the analysis soundness
// checker (internal/analysis) uses it to compare every produced value
// against the certificate's interval and escape claims.
//
// OnValue fires after the op at pc has fully executed (nested calls
// included), with the frame's live operand stack. It is NOT called for
// ops that raise (the claim "this op's result is X" is vacuous when the
// op produces no result), nor for control-flow ops that end the frame.
// The stack slice is the operand stack the op left, boxed from the frame's
// registers: observers must treat it as read-only and must not retain it.
//
// A Config.Tracer that also implements ValueTracer is detected once at
// New(); engines with a plain Tracer (the profiler) pay nothing new.
type ValueTracer interface {
	Tracer
	OnValue(code *minipy.Code, pc int, op minipy.Op, stack []minipy.Value)
}
