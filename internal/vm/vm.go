package vm

import (
	"context"
	"fmt"
	"io"

	"repro/internal/minipy"
)

// Mode selects the execution engine.
type Mode int

// Engine modes.
const (
	// ModeInterp is the CPython-like switch-dispatch interpreter.
	ModeInterp Mode = iota
	// ModeJIT is the simulated tracing JIT (PyPy-like cost model).
	ModeJIT
)

func (m Mode) String() string {
	if m == ModeJIT {
		return "jit"
	}
	return "interp"
}

// ParseVM parses the VM option shared by harness.Options.VM,
// controlapi.CampaignSpec.VM and pybench -vm: "" or "reg" simulates the
// stack program, and "reg-elide" charges only the instructions the
// move-elided stream executes (ablation A9), a distinct experiment arm
// because it counts fewer simulated ops. It returns the Config.RegElide
// setting.
func ParseVM(s string) (regElide bool, err error) {
	switch s {
	case "", "reg":
		return false, nil
	case "reg-elide":
		return true, nil
	}
	return false, fmt.Errorf("unknown vm %q (want reg or reg-elide)", s)
}

// Config configures one VM invocation.
type Config struct {
	Mode Mode
	// RegElide selects ablation A9: the move-elided register stream
	// charging only the instructions it executes. It changes the simulated
	// counters, so it is opt-in and excluded from the committed goldens.
	// Without it, an interpreter with no Probe or Tracer runs the same
	// stream but charges each elided move to the instruction that absorbed
	// it, and an observed one runs the 1:1 lowering (DESIGN §16); both
	// simulate the stack program bit for bit.
	RegElide bool
	// Cost overrides the cost model; zero value means DefaultCostParams.
	Cost CostParams
	// Probe, when non-nil, receives the executed instruction stream for
	// microarchitectural simulation; its returned stalls are added to the
	// cycle count.
	Probe Probe
	// Tracer, when non-nil, passively observes frames and executed ops for
	// source-level profiling (internal/profile). Unlike Probe it never
	// feeds back into the simulation.
	Tracer Tracer
	// Out receives print() output. Defaults to io.Discard.
	Out io.Writer
	// MaxSteps bounds the bytecode ops the interpreter executes, over
	// RunModule and every later call together (0 = 2^62).
	MaxSteps uint64
	// MaxDepth bounds call nesting. Defaults to 4096.
	MaxDepth int
	// Context, when its Done channel is non-nil, is polled whenever the
	// step count crosses a multiple of abortPollInterval; once it is done,
	// execution aborts with an AbortError carrying context.Cause. This is
	// the supervisor's hook for wall-clock budgets and external
	// cancellation — the VM itself stays free of time sources so
	// simulations remain deterministic. A context that cannot be cancelled
	// is never polled.
	Context context.Context
}

// abortPollInterval is how often (in executed ops) Context is polled.
// Power of two, so the next poll threshold is a mask away.
const abortPollInterval = 1024

// Counters is a snapshot of the engine's execution accounting.
type Counters struct {
	Steps        uint64 // executed bytecode ops
	Instructions uint64 // abstract machine instructions
	Cycles       uint64 // simulated cycles: Instructions + StallCycles + JITPauses
	StallCycles  uint64 // probe-attributed stalls (cache, branch)
	JITPauses    uint64 // compile/bridge pause cycles
	Allocations  uint64 // heap objects allocated
}

// Sub returns c - prev, field-wise.
func (c Counters) Sub(prev Counters) Counters {
	return Counters{
		Steps:        c.Steps - prev.Steps,
		Instructions: c.Instructions - prev.Instructions,
		Cycles:       c.Cycles - prev.Cycles,
		StallCycles:  c.StallCycles - prev.StallCycles,
		JITPauses:    c.JITPauses - prev.JITPauses,
		Allocations:  c.Allocations - prev.Allocations,
	}
}

// Interp is one MiniPy VM invocation: a module's global namespace plus the
// execution-cost accounting for the chosen engine. It is not safe for
// concurrent use.
type Interp struct {
	cfg      Config
	cost     CostParams
	Globals  map[string]minipy.Value
	builtins map[string]minipy.Value
	out      io.Writer

	jit     *jitState
	probe   Probe
	tracer  Tracer
	vtracer ValueTracer     // cfg.Tracer when it also implements ValueTracer
	cancel  <-chan struct{} // cfg.Context.Done(); nil when it cannot end

	steps     uint64
	maxSteps  uint64
	instrs    uint64
	stalls    uint64
	jitPauses uint64
	allocs    uint64
	allocAddr uint64
	depth     int
	maxDepth  int

	// Per-code-object interpreter state (stable id, register code, simulated
	// IC counters and JIT sites, host-level inline caches), resolved with
	// one map lookup per frame entry and a one-entry hot cache in front for
	// tight recursion.
	codeStates map[*minipy.Code]*codeState
	lastCode   *minipy.Code
	lastState  *codeState

	// gver is the version counter of the Globals namespace: bumped on every
	// STORE_GLOBAL and at every external entry point (the exported Globals
	// map may be mutated between calls). Global-load inline caches are valid
	// only while their recorded version matches.
	gver uint64
	// aepoch is the class-layout epoch: bumped when any class gains or
	// changes an attribute, invalidating every LOAD_ATTR method cache.
	aepoch uint64

	// Simulated inline-cache (specializing interpreter) parameters: per-site
	// execution counts live in codeState.ic, saturating at icWarmup, and a
	// warmed-up site charges icCost[op] (nil unless CostParams.InlineCache).
	icWarmup uint8
	icCost   *opCosts

	// Boxed argument and operand buffers are recycled LIFO across
	// activations so steady-state frames allocate nothing. Purely a
	// host-level optimization — simulated Allocations only counts alloc().
	localsPool [][]minipy.Value

	// The register stream this Interp runs, and the register-file pool.
	stream   stream
	regArena regArena
}

// stream is the register stream an Interp runs (DESIGN §16). It follows
// only from Config.RegElide and the observers.
type stream uint8

const (
	// streamElided is the move-elided stream, each kept instruction
	// charged for every source op it covers: the stack program's counters
	// at fewer dispatches. Every unobserved interpreter runs it.
	streamElided stream = iota
	// streamPlain is the 1:1 lowering: a Probe or Tracer sees every source
	// op, with its own memory accesses and operand stack.
	streamPlain
	// streamA9 is the move-elided stream charging only the instructions it
	// executes (ablation A9).
	streamA9
)

// codeState is the per-invocation interpreter state of one code object:
// the probe's site id, the simulated inline-cache counters, the JIT's per-pc
// bookkeeping, the host-level inline caches and the register code. The VM
// keeps no state about a code object outside the Interps that ran it, so
// the code dies with the last of them.
type codeState struct {
	// id builds stable branch-site addresses for the probe.
	id uint64
	// ic holds the simulated specializing-interpreter counters (nil unless
	// CostParams.InlineCache).
	ic []uint8
	// jit holds the simulated JIT's compiled mask, loop-head counts and
	// guards, indexed by source pc (nil unless ModeJIT).
	jit []jitSite
	// globals caches LOAD_GLOBAL resolutions by name index, keyed on gver.
	globals []gslot
	// attrs caches LOAD_ATTR class-method resolutions by pc, keyed on
	// aepoch (nil when the code has no LOAD_ATTR sites).
	attrs []aslot
	// rc is this Interp's register form of the code, quickened in place,
	// and rconsts its pre-tagged constants; err is the error lowering or
	// register verification returned instead.
	rc      minipy.RCode
	rconsts []rslot
	err     error
	// charge is what each instruction of rc charges when it dispatches:
	// the sum over the source ops it covers, rewritten when a trace
	// compiles over it or its inline-cache site warms (icWarming marks a
	// site still counting).
	charge []uint64
}

// gslot is a monomorphic global-load cache entry: the value the name
// resolved to at Globals version ver.
type gslot struct {
	ver uint64
	val minipy.Value
}

// state returns the per-code interpreter state, creating it and lowering
// the code on first use, or the error lowering returned.
func (in *Interp) state(code *minipy.Code) (*codeState, error) {
	if in.lastCode == code {
		return in.lastState, nil
	}
	st, ok := in.codeStates[code]
	if !ok {
		if in.codeStates == nil {
			in.codeStates = map[*minipy.Code]*codeState{}
		}
		st = &codeState{id: uint64(len(in.codeStates)+1) << 20}
		if in.icCost != nil {
			st.ic = make([]uint8, len(code.Ops))
		}
		if in.jit != nil {
			st.jit = make([]jitSite, len(code.Ops))
		}
		if len(code.Names) > 0 {
			st.globals = make([]gslot, len(code.Names))
		}
		for _, ins := range code.Ops {
			if ins.Op == minipy.OpLoadAttr {
				st.attrs = make([]aslot, len(code.Ops))
				break
			}
		}
		in.codeStates[code] = st
		st.lower(code, in.stream)
		if st.err == nil {
			st.charge = make([]uint64, len(st.rc.Ops))
			in.recharge(st, 0, len(st.charge))
		}
	}
	if st.err != nil {
		return nil, st.err
	}
	in.lastCode, in.lastState = code, st
	return st, nil
}

// getLocals takes an n-slot locals array from the pool, cleared to nil so
// unassigned-local detection keeps working.
func (in *Interp) getLocals(n int) []minipy.Value {
	if m := len(in.localsPool); m > 0 {
		s := in.localsPool[m-1]
		in.localsPool = in.localsPool[:m-1]
		if cap(s) >= n {
			s = s[:n]
			clear(s)
			return s
		}
	}
	return make([]minipy.Value, n)
}

func (in *Interp) putLocals(s []minipy.Value) {
	in.localsPool = append(in.localsPool, s[:0])
}

// sharedBuiltins is the process-wide builtin table. builtinTable's closures
// take the invoking *Interp as a parameter and the map is never written
// after construction, so one table serves every Interp (including Interps
// on different goroutines — concurrent map reads are safe). Building it
// once removes ~50 map-insert allocations from every New().
var sharedBuiltins = builtinTable()

// New creates a fresh VM invocation.
func New(cfg Config) *Interp {
	if cfg.Out == nil {
		cfg.Out = io.Discard
	}
	cost := cfg.Cost
	if cost.DispatchOverhead == 0 && cost.JITDivisor == 0 {
		cost = DefaultCostParams()
	}
	if cost.JITDivisor == 0 {
		cost.JITDivisor = 1
	}
	maxSteps := cfg.MaxSteps
	if maxSteps == 0 {
		maxSteps = 1 << 62
	}
	maxDepth := cfg.MaxDepth
	if maxDepth == 0 {
		maxDepth = 4096
	}
	in := &Interp{
		cfg:       cfg,
		cost:      cost,
		Globals:   map[string]minipy.Value{},
		out:       cfg.Out,
		probe:     cfg.Probe,
		tracer:    cfg.Tracer,
		maxSteps:  maxSteps,
		maxDepth:  maxDepth,
		allocAddr: 0x10000, // leave a synthetic "low memory" hole
		gver:      1,       // 0 means "never cached" in gslot entries
		aepoch:    1,
	}
	switch {
	case cfg.RegElide:
		in.stream = streamA9
	case cfg.Probe != nil || cfg.Tracer != nil:
		in.stream = streamPlain
	}
	if vt, ok := cfg.Tracer.(ValueTracer); ok {
		in.vtracer = vt
	}
	if cfg.Context != nil {
		in.cancel = cfg.Context.Done()
	}
	in.builtins = sharedBuiltins
	if cfg.Mode == ModeJIT {
		in.jit = newJITState(cost)
	}
	if cost.InlineCache {
		in.icWarmup = cost.ICWarmup
		if in.icWarmup == 0 {
			in.icWarmup = 2
		}
		divisor := cost.ICDivisor
		if divisor == 0 {
			divisor = 3
		}
		in.icCost = new(opCosts)
		in.icCost.fillIC(cost.DispatchOverhead, divisor)
	}
	return in
}

// Mode reports the engine mode of this invocation.
func (in *Interp) Mode() Mode { return in.cfg.Mode }

// CountersSnapshot returns the current execution accounting. Every cycle
// is an instruction, a stall or a JIT pause, so Cycles is their sum.
func (in *Interp) CountersSnapshot() Counters {
	return Counters{
		Steps:        in.steps,
		Instructions: in.instrs,
		Cycles:       in.instrs + in.stalls + in.jitPauses,
		StallCycles:  in.stalls,
		JITPauses:    in.jitPauses,
		Allocations:  in.allocs,
	}
}

// HeapMark returns the current synthetic-heap watermark: every address
// returned by a later alloc is >= the mark. The analysis soundness checker
// records the mark at frame entry; any object whose address is at or above
// it was allocated during (or after) that activation.
func (in *Interp) HeapMark() uint64 { return in.allocAddr }

// JITStats returns trace-compilation statistics, or zeros for the
// interpreter.
func (in *Interp) JITStats() (traces, bridges, guardFails int) {
	if in.jit == nil {
		return 0, 0, 0
	}
	return in.jit.TracesCompiled, in.jit.BridgesCompiled, in.jit.GuardFails
}

// alloc reserves a synthetic heap address for an object of approximately
// size bytes and counts the allocation.
func (in *Interp) alloc(size uint64) uint64 {
	if size < 16 {
		size = 16
	}
	size = (size + 15) &^ 15
	addr := in.allocAddr
	in.allocAddr += size
	in.allocs++
	return addr
}

func (in *Interp) newList(items []minipy.Value) *minipy.List {
	return &minipy.List{Items: items, Addr: in.alloc(uint64(24 + 8*len(items)))}
}

func (in *Interp) newTuple(items []minipy.Value) *minipy.Tuple {
	return &minipy.Tuple{Items: items, Addr: in.alloc(uint64(16 + 8*len(items)))}
}

func (in *Interp) newDict() *minipy.Dict {
	return minipy.NewDict(in.alloc(4096)) // synthetic bucket array footprint
}

// memAccess reports a simulated data access to the probe and charges stalls.
func (in *Interp) memAccess(addr uint64, write bool) {
	if in.probe != nil {
		in.stalls += in.probe.OnMem(addr, write)
	}
}

// RunModule executes compiled module code in this invocation's globals.
func (in *Interp) RunModule(code *minipy.Code) (minipy.Value, error) {
	if !code.IsModule {
		return nil, typeErr("RunModule requires module code")
	}
	in.invalidateCaches()
	st, err := in.state(code)
	if err != nil {
		return nil, err
	}
	regs := in.getRegs(st.rc.NumRegs)
	ret, err := in.enterFrame(code, st, regs, nil)
	in.putRegs(regs)
	return rbox(&ret), err
}

// invalidateCaches bumps the inline-cache version counters. Called at every
// external entry point: the exported Globals map (and any reachable Class)
// may have been mutated directly between calls, which the in-VM bumps in
// STORE_GLOBAL and setAttr cannot see.
func (in *Interp) invalidateCaches() {
	in.gver++
	in.aepoch++
}

// RunSource compiles and runs MiniPy source.
func (in *Interp) RunSource(src string) (minipy.Value, error) {
	code, err := minipy.CompileSource(src)
	if err != nil {
		return nil, err
	}
	return in.RunModule(code)
}

// CallGlobal calls a function defined in the module's global namespace.
func (in *Interp) CallGlobal(name string, args ...minipy.Value) (minipy.Value, error) {
	fn, ok := in.Globals[name]
	if !ok {
		return nil, nameErr("name '%s' is not defined", name)
	}
	in.invalidateCaches()
	return in.call(fn, args)
}

// call invokes any callable value.
func (in *Interp) call(fn minipy.Value, args []minipy.Value) (minipy.Value, error) {
	switch fn := fn.(type) {
	case *minipy.Function:
		return in.callFunctionRegBoxed(fn, args)
	case *minipy.BoundMethod:
		// fn.Fn is always a *Function, which copies args into its own
		// locals, so the prepend buffer can be pooled too.
		all := in.getLocals(len(args) + 1)
		all[0] = fn.Recv
		copy(all[1:], args)
		ret, err := in.call(fn.Fn, all)
		in.putLocals(all)
		return ret, err
	case *builtinFunc:
		return fn.fn(in, args)
	case *builtinMethod:
		return fn.fn(in, fn.recv, args)
	case *minipy.Class:
		inst := &minipy.Instance{Class: fn, Fields: map[string]minipy.Value{}, Addr: in.alloc(128)}
		if init, ok := fn.Lookup("__init__"); ok {
			initFn, ok := init.(*minipy.Function)
			if !ok {
				return nil, typeErr("__init__ must be a function")
			}
			all := in.getLocals(len(args) + 1)
			all[0] = inst
			copy(all[1:], args)
			_, err := in.call(initFn, all)
			in.putLocals(all)
			if err != nil {
				return nil, err
			}
		} else if len(args) != 0 {
			return nil, typeErr("%s() takes no arguments (%d given)", fn.Name, len(args))
		}
		return inst, nil
	}
	return nil, typeErr("'%s' object is not callable", fn.TypeName())
}
