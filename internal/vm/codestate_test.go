package vm

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/minipy"
)

// stateSrc quickens every kind of site (int and float arithmetic, a fused
// compare-and-branch, range iteration) and, under the JIT, compiles traces
// whose guards side-exit and bridge: the branch in blend flips direction
// halfway through each loop.
const stateSrc = `
def blend(a, b, n):
    s = a
    for i in range(n):
        if i < n // 2:
            s = s + b
        else:
            s = s - b
    return s

def run(a, b):
    total = a
    for k in range(30):
        total = blend(total, b, 40)
    print(total)
    return total
`

// stateConfig is one way to run stateSrc: engine, whether it is ablation
// A9 (elide; otherwise the unobserved default stream), and whether run()
// is fed ints (its sites quicken to the II forms) or floats
// (the FF forms).
type stateConfig struct {
	mode   Mode
	elide  bool
	floats bool
}

func (c stateConfig) String() string {
	return fmt.Sprintf("%v/elide=%v/floats=%v", c.mode, c.elide, c.floats)
}

func (c stateConfig) args() []minipy.Value {
	if c.floats {
		return []minipy.Value{minipy.Float(0.5), minipy.Float(1.25)}
	}
	return []minipy.Value{minipy.Int(1), minipy.Int(3)}
}

func stateConfigs() []stateConfig {
	var out []stateConfig
	for _, mode := range []Mode{ModeInterp, ModeJIT} {
		for _, elide := range []bool{false, true} {
			for _, floats := range []bool{false, true} {
				out = append(out, stateConfig{mode, elide, floats})
			}
		}
	}
	return out
}

// stateRun is everything one interpreter observably produced from stateSrc.
type stateRun struct {
	out                        string
	counters                   Counters
	traces, bridges, guardFail int
	dis                        string
}

// runState runs code under c on a fresh interpreter and returns what it
// produced, including the quickened register stream of every code object
// in the tree.
func runState(code *minipy.Code, c stateConfig) (stateRun, error) {
	var buf bytes.Buffer
	in := New(Config{Mode: c.mode, RegElide: c.elide, Out: &buf})
	if _, err := in.RunModule(code); err != nil {
		return stateRun{}, err
	}
	if _, err := in.CallGlobal("run", c.args()...); err != nil {
		return stateRun{}, err
	}
	r := stateRun{out: buf.String(), counters: in.CountersSnapshot()}
	r.traces, r.bridges, r.guardFail = in.JITStats()
	var dis strings.Builder
	walkCode(code, func(c *minipy.Code) { dis.WriteString(in.DisassembleQuickened(c)) })
	r.dis = dis.String()
	return r, nil
}

func walkCode(c *minipy.Code, f func(*minipy.Code)) {
	f(c)
	for _, k := range c.Consts {
		if sub, ok := k.(*minipy.Code); ok {
			walkCode(sub, f)
		}
	}
}

func compileState(t *testing.T) *minipy.Code {
	t.Helper()
	code, err := minipy.CompileSource(stateSrc)
	if err != nil {
		t.Fatal(err)
	}
	return code
}

// TestCodeDiesWithInterp runs a program on one interpreter, drops both, and
// waits for every code object in the tree to be finalized: the VM keeps no
// state about a code object outside the interpreters that ran it, so a
// process that compiles program after program (a daemon, a fold sandbox)
// does not keep them all.
func TestCodeDiesWithInterp(t *testing.T) {
	for _, c := range stateConfigs() {
		t.Run(c.String(), func(t *testing.T) {
			finalized, n := runAndWatch(t, c)
			deadline := time.Now().Add(5 * time.Second)
			for got := 0; got < n; {
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d code objects still reachable after their interpreter was dropped", n-got, n)
				}
				runtime.GC()
				select {
				case <-finalized:
					got++
				case <-time.After(20 * time.Millisecond):
				}
			}
		})
	}
}

// runAndWatch compiles stateSrc, sets a finalizer on each of its code
// objects, runs it under c and checks that it quickened (and, under the
// JIT, compiled a trace and bridged a guard). It returns the finalizer
// channel and the number of code objects; nothing else it made survives.
func runAndWatch(t *testing.T, c stateConfig) (<-chan struct{}, int) {
	t.Helper()
	code := compileState(t)
	n := 0
	finalized := make(chan struct{}, 8)
	walkCode(code, func(c *minipy.Code) {
		n++
		runtime.SetFinalizer(c, func(*minipy.Code) { finalized <- struct{}{} })
	})
	r, err := runState(code, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.check(c); err != nil {
		t.Fatal(err)
	}
	return finalized, n
}

// check reports whether a lone interpreter's run of stateSrc under c
// quickened what it must: the int compare and range sites always, the
// accumulator to RBINARY_FF exactly when run() is fed floats; and under
// the JIT, whether it compiled a trace and bridged a guard.
func (r stateRun) check(c stateConfig) error {
	if !strings.Contains(r.dis, "RBINARY_II") || !strings.Contains(r.dis, "RFOR_ITER_RANGE") ||
		strings.Contains(r.dis, "RBINARY_FF") != c.floats {
		return fmt.Errorf("%v: unexpected quickening:\n%s", c, r.dis)
	}
	if c.mode == ModeJIT && (r.traces == 0 || r.bridges == 0) {
		return fmt.Errorf("%v: JIT compiled %d traces and %d bridges, want some of each", c, r.traces, r.bridges)
	}
	return nil
}

// TestInterpretersQuickenOneCodeConcurrently runs one code object on many
// interpreters at once, int-fed and float-fed, default and A9,
// interpreter and JIT. Each must produce exactly what a lone interpreter
// produces from its own compile of the source, quickened stream included:
// quickening rewrites the interpreter's own lowering, so no interpreter
// sees another's rewrites. Run it under -race.
func TestInterpretersQuickenOneCodeConcurrently(t *testing.T) {
	configs := stateConfigs()
	want := make([]stateRun, len(configs))
	for i, c := range configs {
		r, err := runState(compileState(t), c)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if err := r.check(c); err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	shared := compileState(t)
	const perConfig = 3
	var wg sync.WaitGroup
	for k := 0; k < perConfig*len(configs); k++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := runState(shared, configs[i])
			if err != nil {
				t.Errorf("%v: %v", configs[i], err)
				return
			}
			if got != want[i] {
				t.Errorf("%v: shared code object ran differently from a lone interpreter:\ngot  %+v\nwant %+v",
					configs[i], got, want[i])
			}
		}(k % len(configs))
	}
	wg.Wait()
}

// TestDivisionFreeCostsMatchDivision pins the precomputed in-trace and
// inline-cache charges to the division they replace, max(1, x/d), for every
// opcode slot, the dispatch overheads ablation A1 sweeps plus one that
// wraps the uint32 sum, and every divisor from 1 to 16 (the defaults are
// 7 and 3; a zero JITDivisor runs as 1).
func TestDivisionFreeCostsMatchDivision(t *testing.T) {
	for _, dispatch := range []uint32{0, 4, 9, 16, 24, math.MaxUint32 - 5} {
		for d := uint32(1); d <= 16; d++ {
			cost := DefaultCostParams()
			cost.DispatchOverhead = dispatch
			cost.JITDivisor = d
			cost.InlineCache = true
			cost.ICDivisor = d
			in := New(Config{Mode: ModeJIT, Cost: cost})
			for op := range baseInstr {
				trace := uint64(baseInstr[op] + dispatch)
				trace /= uint64(d)
				if trace == 0 {
					trace = 1
				}
				ic := uint64(dispatch) + uint64(baseInstr[op])/uint64(d)
				if ic == 0 {
					ic = 1
				}
				if got := in.jit.traceCost[op]; got != trace {
					t.Fatalf("dispatch %d, divisor %d, op %d: in-trace cost %d, want %d", dispatch, d, op, got, trace)
				}
				if got := in.icCost[op]; got != ic {
					t.Fatalf("dispatch %d, divisor %d, op %d: inline-cache cost %d, want %d", dispatch, d, op, got, ic)
				}
			}
		}
	}
}
