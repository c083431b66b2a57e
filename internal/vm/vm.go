package vm

import (
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
// controlapi.CampaignSpec.VM and pybench -vm: "" or "reg" runs the default
// register stream, and "reg-elide" runs it with the stream-changing
// move-elision pass (ablation A9), a distinct experiment arm because it
// executes fewer simulated ops. It returns the Config.RegElide setting.
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
	// RegElide enables the stream-changing register move-elision pass
	// (ablation A9). It changes the executed instruction stream — and
	// therefore the simulated counters — so it is opt-in and excluded from
	// the committed goldens.
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
	// MaxSteps bounds executed bytecode ops per Run/Call (0 = 2^62).
	MaxSteps uint64
	// MaxDepth bounds call nesting. Defaults to 4096.
	MaxDepth int
	// AbortCheck, when non-nil, is polled every abortPollInterval executed
	// ops; a non-nil return aborts execution with an AbortError carrying
	// the returned error's message. This is the supervisor's hook for
	// wall-clock budgets and external cancellation — the VM itself stays
	// free of time sources so simulations remain deterministic.
	AbortCheck func() error
}

// abortPollInterval is how often (in executed ops) AbortCheck is polled.
// Power of two so the check compiles to a mask test on the hot path.
const abortPollInterval = 1024

// Counters is a snapshot of the engine's execution accounting.
type Counters struct {
	Steps        uint64 // executed bytecode ops
	Instructions uint64 // abstract machine instructions
	Cycles       uint64 // simulated cycles (instructions + stalls + pauses)
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
	vtracer ValueTracer // cfg.Tracer when it also implements ValueTracer
	abort   func() error

	steps     uint64
	maxSteps  uint64
	instrs    uint64
	cycles    uint64
	stalls    uint64
	jitPauses uint64
	allocs    uint64
	allocAddr uint64
	depth     int
	maxDepth  int

	// Per-code-object interpreter state (stable id, simulated IC counters,
	// host-level inline caches), resolved with one map lookup per frame
	// entry and a one-entry hot cache in front for tight recursion.
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
	// execution counts live in codeState.ic, saturating at icWarmup.
	icEnabled bool
	icWarmup  uint8
	icDivisor uint32

	// Boxed argument and operand buffers are recycled LIFO across
	// activations so steady-state frames allocate nothing. Purely a
	// host-level optimization — simulated Allocations only counts alloc().
	localsPool [][]minipy.Value

	// The A9 move-elision flag and the register-file pool.
	regElide bool
	regArena regArena
}

// codeState is the per-invocation interpreter state of one code object: the
// probe's site id, the simulated inline-cache counters, the host-level
// inline caches and the register code.
type codeState struct {
	// id builds stable branch-site addresses for the probe.
	id uint64
	// ic holds the simulated specializing-interpreter counters (nil unless
	// CostParams.InlineCache).
	ic []uint8
	// globals caches LOAD_GLOBAL resolutions by name index, keyed on gver.
	globals []gslot
	// attrs caches LOAD_ATTR class-method resolutions by pc, keyed on
	// aepoch (nil when the code has no LOAD_ATTR sites).
	attrs []aslot
	// The shared immutable register template (or its lowering error) and
	// this Interp's private quickenable op copy.
	rt        *regTemplate
	rops      []minipy.RInstr
	ropsOwned bool
}

// gslot is a monomorphic global-load cache entry: the value the name
// resolved to at Globals version ver.
type gslot struct {
	ver uint64
	val minipy.Value
}

// state returns (creating on first use) the per-code interpreter state.
func (in *Interp) state(code *minipy.Code) *codeState {
	if in.lastCode == code {
		return in.lastState
	}
	st, ok := in.codeStates[code]
	if !ok {
		if in.codeStates == nil {
			in.codeStates = map[*minipy.Code]*codeState{}
		}
		st = &codeState{id: uint64(len(in.codeStates)+1) << 20}
		if in.icEnabled {
			st.ic = make([]uint8, len(code.Ops))
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
	}
	in.lastCode, in.lastState = code, st
	return st
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
		abort:     cfg.AbortCheck,
		maxSteps:  maxSteps,
		maxDepth:  maxDepth,
		allocAddr: 0x10000, // leave a synthetic "low memory" hole
		gver:      1,       // 0 means "never cached" in gslot entries
		aepoch:    1,
		regElide:  cfg.RegElide,
	}
	if vt, ok := cfg.Tracer.(ValueTracer); ok {
		in.vtracer = vt
	}
	in.builtins = sharedBuiltins
	if cfg.Mode == ModeJIT {
		in.jit = newJITState(cost)
	}
	if cost.InlineCache {
		in.icEnabled = true
		in.icWarmup = cost.ICWarmup
		if in.icWarmup == 0 {
			in.icWarmup = 2
		}
		in.icDivisor = cost.ICDivisor
		if in.icDivisor == 0 {
			in.icDivisor = 3
		}
	}
	return in
}

// Mode reports the engine mode of this invocation.
func (in *Interp) Mode() Mode { return in.cfg.Mode }

// CountersSnapshot returns the current execution accounting.
func (in *Interp) CountersSnapshot() Counters {
	return Counters{
		Steps:        in.steps,
		Instructions: in.instrs,
		Cycles:       in.cycles,
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
		stall := in.probe.OnMem(addr, write)
		in.stalls += stall
		in.cycles += stall
	}
}

// RunModule executes compiled module code in this invocation's globals.
func (in *Interp) RunModule(code *minipy.Code) (minipy.Value, error) {
	if !code.IsModule {
		return nil, typeErr("RunModule requires module code")
	}
	in.invalidateCaches()
	st := in.state(code)
	rt, err := in.regCode(code, st)
	if err != nil {
		return nil, err
	}
	regs := in.getRegs(rt.rc.NumRegs)
	ret, err := in.enterFrame(code, rt, st, regs, nil)
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
