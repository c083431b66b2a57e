package vm_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/minipy"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// An unobserved interpreter runs the move-elided register stream and
// charges every elided move to the instruction that absorbed it; an
// observed one runs the plain 1:1 stream. The tests below hold the first
// to the second: same values, errors, counters and JIT statistics, at
// every opt level, engine and cost model, and at every step budget.

// observer is a Tracer that records nothing: attaching it makes an
// interpreter run the plain stream.
type observer struct{}

func (observer) OnEnter(*minipy.Code)                      {}
func (observer) OnExit(*minipy.Code)                       {}
func (observer) OnOp(*minipy.Code, int, minipy.Op, uint64) {}

// record is everything one VM process shows the harness: per call (module
// set-up first, then each run()) the steps and cycles it took, the final
// counters, the JIT statistics, run()'s last value as its checksum, what
// it printed, and the error that stopped it.
type record struct {
	Steps, Cycles               []uint64
	Final                       vm.Counters
	Traces, Bridges, GuardFails int
	Checksum, Out, Err          string
}

// simulate runs code on one interpreter, plain when plain is set, like the
// harness does: the module, then calls run() calls of run().
func simulate(code *minipy.Code, cfg vm.Config, plain bool, calls int) record {
	var out bytes.Buffer
	cfg.Out = &out
	if plain {
		cfg.Tracer = observer{}
	}
	in := vm.New(cfg)
	var r record
	step := func(f func() (minipy.Value, error)) bool {
		before := in.CountersSnapshot()
		v, err := f()
		d := in.CountersSnapshot().Sub(before)
		r.Steps = append(r.Steps, d.Steps)
		r.Cycles = append(r.Cycles, d.Cycles)
		if err != nil {
			r.Err = err.Error()
			return false
		}
		if v != nil {
			r.Checksum = v.Repr()
		}
		return true
	}
	if step(func() (minipy.Value, error) { return in.RunModule(code) }) {
		for i := 0; i < calls; i++ {
			if !step(func() (minipy.Value, error) { return in.CallGlobal("run") }) {
				break
			}
		}
	}
	r.Final = in.CountersSnapshot()
	r.Traces, r.Bridges, r.GuardFails = in.JITStats()
	r.Out = out.String()
	return r
}

// exactCosts are the cost models the exactness test runs: the default,
// the specializing interpreter (inline-cache charges replace base ones as
// sites warm), and traces that compile without a pause.
func exactCosts() map[string]vm.CostParams {
	ic := vm.DefaultCostParams()
	ic.InlineCache = true
	free := vm.DefaultCostParams()
	free.CompileCostPerOp = 0
	return map[string]vm.CostParams{"default": vm.DefaultCostParams(), "inline-cache": ic, "free-compile": free}
}

// TestElidedStreamMatchesPlain runs every inventory program, in both
// engines, at -opt 0 to 2, under each cost model of exactCosts, on both
// streams: every record must be equal.
func TestElidedStreamMatchesPlain(t *testing.T) {
	cache := workloads.NewCodeCache()
	benches := append(workloads.Suite(), workloads.Extended()...)
	for _, b := range benches {
		for opt := 0; opt <= minipy.MaxOptLevel; opt++ {
			entry, _, err := cache.GetOpt(b, opt)
			if err != nil {
				t.Fatal(err)
			}
			for name, cost := range exactCosts() {
				for _, mode := range []vm.Mode{vm.ModeInterp, vm.ModeJIT} {
					cfg := vm.Config{Mode: mode, Cost: cost}
					want := simulate(entry.Code, cfg, true, 2)
					got := simulate(entry.Code, cfg, false, 2)
					if want.Err != "" {
						t.Errorf("%s/opt%d/%s/%v: %s", b.Name, opt, name, mode, want.Err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s/opt%d/%s/%v: the elided stream ran\n%+v\nthe plain stream\n%+v",
							b.Name, opt, name, mode, got, want)
					}
				}
			}
		}
	}
}

// budgetSources are small programs whose elided streams put every kind of
// covered op where a budget can end: stores of call results, loads and
// stores around inline-cache sites, a loop whose head is an elided load,
// and an indexing op that raises before the store it absorbed.
var budgetSources = map[string]string{
	"calls": `
def f(n):
    if n < 2:
        return n
    a = f(n - 1)
    b = f(n - 2)
    return a + b

def run():
    s = 0
    for i in range(6):
        s = s + f(i)
    return s
`,
	"raise": `
def g(xs):
    t = 0
    i = 0
    while i < 6:
        v = xs[i]
        t = t + v
        i = i + 1
    return t

def run():
    xs = [3, 1, 4, 1, 5, 9]
    a = g(xs)
    b = g(xs[1:])
    return a + b
`,
}

// TestElidedStreamBudgetIsExact stops both streams at every step budget
// from 1 to the length of the whole run: each must stop with the same error
// and the same counters.
func TestElidedStreamBudgetIsExact(t *testing.T) {
	fast := vm.DefaultCostParams()
	fast.JITThreshold = 2
	fast.InlineCache = true
	for name, src := range budgetSources {
		code, err := minipy.CompileSource(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []vm.Mode{vm.ModeInterp, vm.ModeJIT} {
			for _, cost := range []vm.CostParams{vm.DefaultCostParams(), fast} {
				cfg := vm.Config{Mode: mode, Cost: cost}
				total := simulate(code, cfg, true, 1).Final.Steps
				for budget := uint64(1); budget <= total; budget++ {
					cfg.MaxSteps = budget
					want := simulate(code, cfg, true, 1)
					got := simulate(code, cfg, false, 1)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/%v/threshold %d/budget %d of %d: the elided stream stopped with\n%+v\nthe plain stream with\n%+v",
							name, mode, cost.JITThreshold, budget, total, got, want)
					}
				}
			}
		}
	}
}

// nthOp is a Tracer that notes the source line of the n-th op it sees.
type nthOp struct {
	observer
	n, seen uint64
	line    int32
}

func (o *nthOp) OnOp(code *minipy.Code, pc int, _ minipy.Op, _ uint64) {
	if o.seen++; o.seen == o.n {
		o.line = code.Lines[pc]
	}
}

// budgetErrText is how a run stopped at step budget cfg.MaxSteps ends: with
// the step-budget error naming the line of the op that ran out, the
// (MaxSteps+1)-th op of the plain stream (no line when that op has none),
// or, when the program ends first, as it ends without a budget.
func budgetErrText(code *minipy.Code, cfg vm.Config, calls int) string {
	at := &nthOp{n: cfg.MaxSteps + 1}
	cfg.MaxSteps, cfg.Tracer = at.n, at
	r := simulate(code, cfg, false, calls)
	if at.seen < at.n {
		return r.Err
	}
	return (&vm.RuntimeError{Kind: "TimeoutError", Msg: "step budget exhausted", Line: int(at.line)}).Error()
}

// TestBudgetErrorNamesTheOp stops both streams at every step budget of the
// budgetSources programs: the error must name the line of the op that ran
// out, wherever the budget ends — in a callee, at the store a call returns
// into, at an elided load or store, or in module code. The compiler gives
// every op a line but the module's implicit return; a callee stripped of
// its lines must stop with none, not with the line of the call that led
// there.
func TestBudgetErrorNamesTheOp(t *testing.T) {
	codes := map[string]*minipy.Code{}
	for name, src := range budgetSources {
		code, err := minipy.CompileSource(src)
		if err != nil {
			t.Fatal(err)
		}
		codes[name] = code
	}
	code, err := minipy.CompileSource("def h(n):\n    return n + 1\n\ndef run():\n    return h(1)\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range code.Consts {
		if c, ok := k.(*minipy.Code); ok && c.Name == "h" {
			clear(c.Lines)
		}
	}
	codes["lineless callee"] = code
	for name, code := range codes {
		for _, mode := range []vm.Mode{vm.ModeInterp, vm.ModeJIT} {
			cfg := vm.Config{Mode: mode}
			total := simulate(code, cfg, true, 1).Final.Steps
			for budget := uint64(1); budget <= total; budget++ {
				cfg.MaxSteps = budget
				want := budgetErrText(code, cfg, 1)
				for _, plain := range []bool{true, false} {
					if got := simulate(code, cfg, plain, 1).Err; got != want {
						t.Errorf("%s/%v/budget %d of %d, plain=%v: got %q, want %q",
							name, mode, budget, total, plain, got, want)
					}
				}
			}
		}
	}
}

// FuzzElidedStream holds the elided stream to the plain one on generated
// programs (or, with seed 0, the inventory programs) at any opt level,
// engine, dispatch overhead, JIT threshold, compile cost, inline-cache
// model and step budget, and a budget error to the op that ran out; the
// A9 stream must run the same input without panicking.
func FuzzElidedStream(f *testing.F) {
	benches := append(workloads.Suite(), workloads.Extended()...)
	for i := range benches {
		f.Add(uint64(0), uint8(i), uint8(i), uint8(i), uint8(9), uint8(15), uint16(420), i%2 == 0, uint32(1<<20-1))
	}
	// The seeds of random_programs.golden and of the differential tests.
	budgets := []uint32{1<<20 - 1, 96, 4998, 1<<20 - 1}
	for _, seed := range []uint64{1618, 2718, 31415} {
		for i := 0; i < 4; i++ {
			f.Add(seed, uint8(i), uint8(i), uint8(i), uint8(9), uint8(i*5), uint16(i*100), i%2 == 1, budgets[i])
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, index, mode, opt, dispatch, threshold uint8,
		compileCost uint16, inlineCache bool, budget uint32) {
		src, calls := benches[int(index)%len(benches)].Source, 1
		if seed != 0 {
			src, calls = vm.GenProgram(seed, int(index%8)), 0
		}
		code, err := minipy.CompileSource(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := minipy.Verify(code); err != nil {
			t.Fatal(err)
		}
		if level := int(opt) % (minipy.MaxOptLevel + 1); level > 0 {
			if code, err = minipy.Optimize(code, level, analysis.OptimizationFacts(code)); err != nil {
				t.Fatal(err)
			}
		}
		cost := vm.DefaultCostParams()
		cost.DispatchOverhead = uint32(dispatch)
		cost.JITThreshold = 1 + int(threshold%32)
		cost.CompileCostPerOp = uint64(compileCost)
		cost.InlineCache = inlineCache
		cfg := vm.Config{Mode: vm.Mode(mode % 2), Cost: cost, MaxSteps: 1 + uint64(budget%(1<<20))}
		want := simulate(code, cfg, true, calls)
		if got := simulate(code, cfg, false, calls); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the elided stream ran\n%+v\nthe plain stream\n%+v\n%s", describe(cfg), got, want, src)
		}
		if text := budgetErrText(code, cfg, calls); want.Err != text {
			t.Fatalf("%s: both streams stopped with %q, want %q\n%s", describe(cfg), want.Err, text, src)
		}
		cfg.RegElide = true
		simulate(code, cfg, false, calls)
	})
}

func describe(cfg vm.Config) string {
	c := cfg.Cost
	return fmt.Sprintf("%v dispatch=%d threshold=%d compile=%d ic=%v budget=%d",
		cfg.Mode, c.DispatchOverhead, c.JITThreshold, c.CompileCostPerOp, c.InlineCache, cfg.MaxSteps)
}
