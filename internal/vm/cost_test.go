package vm

import (
	"bytes"
	"testing"

	"repro/internal/minipy"
)

func TestDefaultCostParamsSane(t *testing.T) {
	p := DefaultCostParams()
	if p.DispatchOverhead == 0 || p.JITDivisor < 2 || p.JITThreshold < 2 {
		t.Fatalf("defaults %+v", p)
	}
	if p.CompileCostPerOp == 0 || p.GuardFailPenalty == 0 || p.BridgeCompileCost == 0 {
		t.Fatalf("zero JIT costs: %+v", p)
	}
}

func TestBaseInstrCoversAllOps(t *testing.T) {
	for op := minipy.Op(0); int(op) < minipy.NumOps; op++ {
		if baseInstr[op] == 0 {
			t.Errorf("opcode %v has zero base cost", op)
		}
	}
}

// The JIT model's per-pc bookkeeping is a code object's codeState.jit
// slice; these tests drive it directly on a 20- and an 8-pc code object.

func TestJITStateBackEdgeCompilation(t *testing.T) {
	p := DefaultCostParams()
	p.JITThreshold = 3
	j := newJITState(p)
	sites := make([]jitSite, 20)

	// Below threshold: no compilation.
	for i := 0; i < 2; i++ {
		if pause := j.onBackEdge(sites, 10, 4); pause != 0 {
			t.Fatalf("premature compile at count %d", i)
		}
	}
	// Threshold hit: compile pause proportional to region size.
	pause := j.onBackEdge(sites, 10, 4)
	if want := uint64(7) * p.CompileCostPerOp; pause != want {
		t.Fatalf("compile pause %d, want %d", pause, want)
	}
	if j.TracesCompiled != 1 {
		t.Fatalf("traces %d", j.TracesCompiled)
	}
	for pc := 4; pc <= 10; pc++ {
		if !sites[pc].compiled {
			t.Fatalf("pc %d not in trace mask", pc)
		}
	}
	if sites[3].compiled || sites[11].compiled {
		t.Fatal("mask extends outside the loop region")
	}
	// Further back edges on a compiled head are free.
	if pause := j.onBackEdge(sites, 10, 4); pause != 0 {
		t.Fatal("re-compilation of a compiled loop")
	}
}

func TestJITStateGuardLifecycle(t *testing.T) {
	p := DefaultCostParams()
	p.GuardFailLimit = 3
	j := newJITState(p)
	sites := make([]jitSite, 8)

	// First observation trains the guard.
	if pause := j.onGuard(sites, 2, true); pause != 0 {
		t.Fatal("training observation should be free")
	}
	// Matching direction: free.
	if pause := j.onGuard(sites, 2, true); pause != 0 {
		t.Fatal("matching direction should be free")
	}
	// Mismatches pay the penalty until the bridge limit.
	for i := 0; i < p.GuardFailLimit-1; i++ {
		if pause := j.onGuard(sites, 2, false); pause != p.GuardFailPenalty {
			t.Fatalf("fail %d: pause %d, want %d", i, pause, p.GuardFailPenalty)
		}
	}
	// Limit reached: bridge compiled once.
	if pause := j.onGuard(sites, 2, false); pause != p.BridgeCompileCost {
		t.Fatal("bridge compile pause missing")
	}
	if j.BridgesCompiled != 1 {
		t.Fatalf("bridges %d", j.BridgesCompiled)
	}
	// After bridging: both directions free.
	if j.onGuard(sites, 2, true) != 0 || j.onGuard(sites, 2, false) != 0 {
		t.Fatal("bridged guard should be free both ways")
	}
}

func TestDispatchOverheadMonotoneAtVMLevel(t *testing.T) {
	src := "total = 0\nfor i in range(500):\n    total += i"
	cycles := func(overhead uint32) uint64 {
		cost := DefaultCostParams()
		cost.DispatchOverhead = overhead
		in := New(Config{Cost: cost})
		if _, err := in.RunSource(src); err != nil {
			t.Fatal(err)
		}
		return in.CountersSnapshot().Cycles
	}
	c0, c9, c20 := cycles(0), cycles(9), cycles(20)
	if !(c0 < c9 && c9 < c20) {
		t.Fatalf("cycles not monotone in dispatch overhead: %d %d %d", c0, c9, c20)
	}
}

func TestJITThresholdAffectsWarmupOnly(t *testing.T) {
	src := `
def run():
    total = 0
    for i in range(400):
        total += i
    return total
`
	steady := func(threshold int) uint64 {
		cost := DefaultCostParams()
		cost.JITThreshold = threshold
		in := New(Config{Mode: ModeJIT, Cost: cost})
		if _, err := in.RunSource(src); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if _, err := in.CallGlobal("run"); err != nil {
				t.Fatal(err)
			}
		}
		before := in.CountersSnapshot().Cycles
		if _, err := in.CallGlobal("run"); err != nil {
			t.Fatal(err)
		}
		return in.CountersSnapshot().Cycles - before
	}
	// Steady-state cost must be independent of when compilation happened.
	a, b := steady(4), steady(64)
	if a != b {
		t.Fatalf("steady cost depends on threshold: %d vs %d", a, b)
	}
}

func TestCountersSub(t *testing.T) {
	a := Counters{Steps: 10, Instructions: 100, Cycles: 150, StallCycles: 20, JITPauses: 5, Allocations: 3}
	b := Counters{Steps: 4, Instructions: 40, Cycles: 60, StallCycles: 8, JITPauses: 1, Allocations: 1}
	d := a.Sub(b)
	if d.Steps != 6 || d.Instructions != 60 || d.Cycles != 90 ||
		d.StallCycles != 12 || d.JITPauses != 4 || d.Allocations != 2 {
		t.Fatalf("sub %+v", d)
	}
}

func TestModeString(t *testing.T) {
	if ModeInterp.String() != "interp" || ModeJIT.String() != "jit" {
		t.Fatal("mode strings")
	}
}

func TestAllocCountingAndAlignment(t *testing.T) {
	in := New(Config{})
	a1 := in.alloc(1)
	a2 := in.alloc(17)
	if a1%16 != 0 || a2%16 != 0 {
		t.Fatalf("allocations not 16-byte aligned: %x %x", a1, a2)
	}
	if a2 <= a1 {
		t.Fatal("allocator must advance")
	}
	if in.CountersSnapshot().Allocations != 2 {
		t.Fatal("allocation count")
	}
}

func TestAllocationsTrackObjectCreation(t *testing.T) {
	in := New(Config{})
	before := in.CountersSnapshot().Allocations
	if _, err := in.RunSource("xs = []\nfor i in range(50):\n    xs.append([i])"); err != nil {
		t.Fatal(err)
	}
	delta := in.CountersSnapshot().Allocations - before
	if delta < 50 {
		t.Fatalf("expected >= 50 allocations for 50 list literals, got %d", delta)
	}
}

func TestJITPausesAccounted(t *testing.T) {
	in := New(Config{Mode: ModeJIT})
	if _, err := in.RunSource("total = 0\nfor i in range(500):\n    total += i"); err != nil {
		t.Fatal(err)
	}
	c := in.CountersSnapshot()
	if c.JITPauses == 0 {
		t.Fatal("hot loop must pay a compile pause")
	}
	if c.Cycles <= c.Instructions {
		t.Fatal("cycles must include pauses on top of instructions")
	}
}

func TestInlineCacheSemanticsUnchanged(t *testing.T) {
	src := `
class P:
    def __init__(self, v):
        self.v = v
    def get(self):
        return self.v
total = 0
for i in range(200):
    p = P(i)
    total += p.get() % 7
print(total)
`
	run := func(ic bool) (string, uint64) {
		cost := DefaultCostParams()
		cost.InlineCache = ic
		var buf bytes.Buffer
		in := New(Config{Cost: cost, Out: &buf})
		if _, err := in.RunSource(src); err != nil {
			t.Fatal(err)
		}
		return buf.String(), in.CountersSnapshot().Cycles
	}
	plainOut, plainCycles := run(false)
	icOut, icCycles := run(true)
	if plainOut != icOut {
		t.Fatalf("inline caching changed semantics: %q vs %q", plainOut, icOut)
	}
	if icCycles >= plainCycles {
		t.Fatalf("inline caching did not reduce cycles: %d vs %d", icCycles, plainCycles)
	}
	// The reduction should be meaningful (> 10%) on attr/call-heavy code.
	if float64(icCycles) > 0.9*float64(plainCycles) {
		t.Fatalf("inline caching saved only %d of %d cycles", plainCycles-icCycles, plainCycles)
	}
}

func TestInlineCacheWarmupPerSite(t *testing.T) {
	cost := DefaultCostParams()
	cost.InlineCache = true
	cost.ICWarmup = 3
	in := New(Config{Cost: cost})
	if _, err := in.RunSource("def f(d):\n    return d['k']\nd = {'k': 1}"); err != nil {
		t.Fatal(err)
	}
	// Call f repeatedly; per-call cycles must drop once sites specialize
	// and then stay constant.
	var costs []uint64
	for i := 0; i < 8; i++ {
		before := in.CountersSnapshot().Cycles
		if _, err := in.CallGlobal("f", in.Globals["d"]); err != nil {
			t.Fatal(err)
		}
		costs = append(costs, in.CountersSnapshot().Cycles-before)
	}
	if costs[7] >= costs[0] {
		t.Fatalf("no specialization visible: %v", costs)
	}
	if costs[6] != costs[7] {
		t.Fatalf("specialized cost not stable: %v", costs)
	}
}
