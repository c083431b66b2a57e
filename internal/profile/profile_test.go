package profile

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/minipy"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// profiledRun compiles a benchmark, runs module setup, resets the profiler,
// then profiles one run() call, returning the engine's counter delta.
func profiledRun(t *testing.T, name string, mode vm.Mode) (*Profiler, vm.Counters) {
	t.Helper()
	b, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("no benchmark %q", name)
	}
	code, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	p := New()
	engine := vm.New(vm.Config{Mode: mode, Tracer: p})
	if _, err := engine.RunModule(code); err != nil {
		t.Fatal(err)
	}
	p.Reset()
	before := engine.CountersSnapshot()
	if _, err := engine.CallGlobal("run"); err != nil {
		t.Fatal(err)
	}
	return p, engine.CountersSnapshot().Sub(before)
}

func TestProfilerReconcilesWithEngineCounters(t *testing.T) {
	for _, name := range []string{"fib", "nbody"} {
		p, delta := profiledRun(t, name, vm.ModeInterp)
		ops, cycles := p.Total()
		if ops != delta.Steps {
			t.Errorf("%s: profiler ops %d != engine steps %d", name, ops, delta.Steps)
		}
		if cycles != delta.Instructions {
			t.Errorf("%s: profiler cycles %d != engine instructions %d", name, cycles, delta.Instructions)
		}
		// With no probe attached the interpreter's cycles are exactly its
		// instructions, so the profile reconciles with the measured cost
		// to the cycle — far inside the 1% contract.
		if cycles != delta.Cycles {
			t.Errorf("%s: profiler cycles %d != engine cycles %d", name, cycles, delta.Cycles)
		}

		// The per-line, per-opcode, and per-stack views must each conserve
		// the total.
		var lineSum, opSum, stackSum uint64
		for _, lc := range p.flat() {
			lineSum += lc.Cycles
		}
		for _, oc := range p.OpCosts() {
			opSum += oc.Cycles
		}
		for _, sc := range p.Stacks() {
			stackSum += sc.Cycles
		}
		if lineSum != cycles || opSum != cycles || stackSum != cycles {
			t.Errorf("%s: views disagree: lines=%d ops=%d stacks=%d total=%d",
				name, lineSum, opSum, stackSum, cycles)
		}
	}
}

func TestProfilerJITModeConservesInstructions(t *testing.T) {
	p, delta := profiledRun(t, "fib", vm.ModeJIT)
	_, cycles := p.Total()
	// Under the JIT, Counters.Cycles additionally includes compile pauses;
	// the profiler tracks the per-op charge, which is the instruction
	// stream.
	if cycles != delta.Instructions {
		t.Errorf("jit: profiler cycles %d != engine instructions %d", cycles, delta.Instructions)
	}
}

func TestCollapsedStacks(t *testing.T) {
	p, _ := profiledRun(t, "fib", vm.ModeInterp)
	var buf bytes.Buffer
	if err := p.WriteCollapsed(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// fib is recursive: the folded output must contain a stack where fib
	// appears under itself, rooted at the frame run() was called from.
	if !strings.Contains(out, "run;fib;fib ") {
		t.Fatalf("collapsed stacks missing recursive fib frames:\n%s", out)
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		parts := strings.Split(line, " ")
		if len(parts) != 2 {
			t.Fatalf("malformed folded line %q", line)
		}
	}
	// Deterministic output: a second export must be byte-identical.
	var again bytes.Buffer
	if err := p.WriteCollapsed(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != out {
		t.Fatal("collapsed output is not deterministic")
	}
}

func TestLineAttributionLandsOnHotLine(t *testing.T) {
	p, _ := profiledRun(t, "fib", vm.ModeInterp)
	flat := p.flat()
	if len(flat) == 0 {
		t.Fatal("no lines attributed")
	}
	// The hottest line must belong to fib (the recursive worker), not to
	// run() or the module body.
	if flat[0].Func != "fib" {
		t.Errorf("hottest line in %q, want fib: %+v", flat[0].Func, flat[0])
	}
	b, _ := workloads.ByName("fib")
	ann := p.Annotate(b.Source)
	if len(ann) == 0 {
		t.Fatal("annotation produced nothing")
	}
	var best AnnotatedLine
	for _, al := range ann {
		if al.Cycles > best.Cycles {
			best = al
		}
	}
	if !strings.Contains(best.Source, "fib(") {
		t.Errorf("hottest annotated source line %q does not mention fib()", best.Source)
	}
}

func TestFuncCostsAggregate(t *testing.T) {
	p, _ := profiledRun(t, "fib", vm.ModeInterp)
	_, total := p.Total()
	var sum uint64
	funcs := map[string]bool{}
	for _, fc := range p.FuncCosts() {
		sum += fc.Cycles
		funcs[fc.Func] = true
	}
	if sum != total {
		t.Errorf("function aggregation loses cycles: %d != %d", sum, total)
	}
	if !funcs["fib"] || !funcs["run"] {
		t.Errorf("expected fib and run in function costs: %v", funcs)
	}
}

func TestResetClears(t *testing.T) {
	p, _ := profiledRun(t, "fib", vm.ModeInterp)
	p.Reset()
	ops, cycles := p.Total()
	if ops != 0 || cycles != 0 || len(p.flat()) != 0 || len(p.Stacks()) != 0 {
		t.Fatal("Reset left state behind")
	}
}

func TestEnterExitBalance(t *testing.T) {
	p := New()
	code := &minipy.Code{Name: "f", Lines: []int32{1}}
	p.OnEnter(code)
	p.OnOp(code, 0, minipy.OpNop, 3)
	p.OnExit(code)
	if len(p.sigs) != 0 {
		t.Fatal("stack not balanced after enter/exit")
	}
	// Exit on an empty stack (defensive: error unwinds) must not panic.
	p.OnExit(code)
	stacks := p.Stacks()
	if len(stacks) != 1 || stacks[0].Stack != "f" || stacks[0].Cycles != 3 {
		t.Fatalf("unexpected stacks: %+v", stacks)
	}
}
