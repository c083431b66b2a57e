package vm

import (
	"testing"

	"repro/internal/minipy"
)

// Two variants of the same allocation-free small-int loop, differing only
// in trip count (both bounds stay below 256 so Go boxes every Int into
// its static small-value table). The VM allocates a constant amount per
// run() call (frame locals), so equal allocation counts across trip counts proves the
// per-iteration hot path allocates nothing when every hook is nil — the
// observability overhead contract (DESIGN.md §8).
const loopSrcShort = `
def run():
    i = 0
    n = 0
    while i < 100:
        i = i + 1
        n = n + 2
        if n > 100:
            n = 0
    return n
`

const loopSrcLong = `
def run():
    i = 0
    n = 0
    while i < 200:
        i = i + 1
        n = n + 2
        if n > 100:
            n = 0
    return n
`

func allocsPerCall(t testing.TB, src string, cfg Config) float64 {
	code, err := minipy.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	e := New(cfg)
	if _, err := e.RunModule(code); err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(50, func() {
		if _, err := e.CallGlobal("run"); err != nil {
			t.Fatal(err)
		}
	})
}

func TestNilHooksZeroAllocsPerIteration(t *testing.T) {
	nilHooks := Config{Probe: nil, Tracer: nil, Context: nil}
	short := allocsPerCall(t, loopSrcShort, nilHooks)
	long := allocsPerCall(t, loopSrcLong, nilHooks)
	if short != long {
		t.Fatalf("hot path allocates per iteration with all hooks nil: "+
			"%v allocs at 100 iterations vs %v at 200", short, long)
	}
}

// BenchmarkIterationNilHooks is the overhead guard in benchmark form: run
// with -benchmem and the B/op and allocs/op columns show the cost of one
// run() call on the uninstrumented path.
func BenchmarkIterationNilHooks(b *testing.B) {
	code, err := minipy.CompileSource(loopSrcShort)
	if err != nil {
		b.Fatal(err)
	}
	e := New(Config{})
	if _, err := e.RunModule(code); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.CallGlobal("run"); err != nil {
			b.Fatal(err)
		}
	}
}

// countingTracer records enough to validate the Tracer contract.
type countingTracer struct {
	enters, exits, ops int
	cycles             uint64
	lines              map[int32]int
	maxDepth, depth    int
}

func (c *countingTracer) OnEnter(code *minipy.Code) {
	c.enters++
	c.depth++
	if c.depth > c.maxDepth {
		c.maxDepth = c.depth
	}
}

func (c *countingTracer) OnExit(code *minipy.Code) {
	c.exits++
	c.depth--
}

func (c *countingTracer) OnOp(code *minipy.Code, pc int, op minipy.Op, cycles uint64) {
	c.ops++
	c.cycles += cycles
	if c.lines == nil {
		c.lines = map[int32]int{}
	}
	c.lines[code.Lines[pc]]++
}

const recursiveSrc = `
def f(n):
    if n == 0:
        return 0
    return f(n - 1) + 1

def run():
    return f(10)
`

func TestTracerObservesFramesAndOps(t *testing.T) {
	code, err := minipy.CompileSource(recursiveSrc)
	if err != nil {
		t.Fatal(err)
	}
	tr := &countingTracer{}
	e := New(Config{Tracer: tr})
	if _, err := e.RunModule(code); err != nil {
		t.Fatal(err)
	}
	setupOps := tr.ops
	before := e.CountersSnapshot()
	if _, err := e.CallGlobal("run"); err != nil {
		t.Fatal(err)
	}
	delta := e.CountersSnapshot().Sub(before)

	if tr.enters != tr.exits {
		t.Fatalf("unbalanced frames: %d enters, %d exits", tr.enters, tr.exits)
	}
	// module + run + 11 calls of f
	if tr.enters != 1+1+11 {
		t.Errorf("enters = %d, want 13", tr.enters)
	}
	if tr.maxDepth != 1+11 {
		t.Errorf("max observed depth = %d, want 12", tr.maxDepth)
	}
	if got := uint64(tr.ops - setupOps); got != delta.Steps {
		t.Errorf("tracer saw %d ops during run(), engine counted %d", got, delta.Steps)
	}
	if delta.Instructions == 0 || tr.cycles == 0 {
		t.Fatal("no cost observed")
	}
}

func TestTracerDoesNotPerturbSimulation(t *testing.T) {
	run := func(tr Tracer) Counters {
		code, err := minipy.CompileSource(recursiveSrc)
		if err != nil {
			t.Fatal(err)
		}
		e := New(Config{Tracer: tr})
		if _, err := e.RunModule(code); err != nil {
			t.Fatal(err)
		}
		if _, err := e.CallGlobal("run"); err != nil {
			t.Fatal(err)
		}
		return e.CountersSnapshot()
	}
	bare := run(nil)
	traced := run(&countingTracer{})
	if bare != traced {
		t.Fatalf("tracer perturbed the simulation:\nbare   %+v\ntraced %+v", bare, traced)
	}
}

func TestTracerExitFiresOnErrorUnwind(t *testing.T) {
	code, err := minipy.CompileSource(`
def boom(n):
    return 1 // n

def run():
    return boom(0)
`)
	if err != nil {
		t.Fatal(err)
	}
	tr := &countingTracer{}
	e := New(Config{Tracer: tr})
	if _, err := e.RunModule(code); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CallGlobal("run"); err == nil {
		t.Fatal("division by zero must error")
	}
	if tr.enters != tr.exits {
		t.Fatalf("error unwind unbalanced frames: %d enters, %d exits", tr.enters, tr.exits)
	}
}
