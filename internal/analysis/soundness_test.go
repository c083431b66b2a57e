package analysis_test

import (
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/minipy"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// checkedRun executes module + calls×run() under a SoundnessChecker built
// from a certificate computed over the EXACT code being executed, and
// returns the checker, final run() result, and executed-step count.
func checkedRun(t *testing.T, code *minipy.Code, mode vm.Mode, calls int) (*analysis.SoundnessChecker, minipy.Value, uint64) {
	t.Helper()
	rep, err := analysis.Analyze(code)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	chk := analysis.NewSoundnessChecker(rep.Facts())
	in := vm.New(vm.Config{Mode: mode, Tracer: chk, MaxSteps: 500_000_000})
	chk.Attach(in)
	if _, err := in.RunModule(code); err != nil {
		t.Fatalf("module: %v", err)
	}
	var last minipy.Value
	for i := 0; i < calls; i++ {
		v, err := in.CallGlobal("run")
		if err != nil {
			t.Fatalf("run() call %d: %v", i+1, err)
		}
		last = v
	}
	return chk, last, in.CountersSnapshot().Steps
}

// variant compiles b and applies the optimizer at the given level (level 0
// returns the verified base program unchanged).
func variant(t *testing.T, b workloads.Benchmark, level int) *minipy.Code {
	t.Helper()
	base, err := b.Compile()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if level == 0 {
		return base
	}
	opt, err := minipy.Optimize(base, level, analysis.OptimizationFacts(base))
	if err != nil {
		t.Fatalf("optimize -opt %d: %v", level, err)
	}
	return opt
}

// TestCertificateSoundOnSuite is the central soundness property of the
// interprocedural analysis (ISSUE 8): across the whole canonical suite, at
// every optimization level, on both engines, the VM must never observe a
// value outside a claimed interval, a write outside a certified effect
// summary, or a non-fresh-certified call returning a fresh object. The
// certificate is recomputed per variant, so the claims being checked are
// about the exact (possibly superinstruction-fused) bytecode that
// executes. Checksums are verified at every level.
func TestCertificateSoundOnSuite(t *testing.T) {
	for _, b := range workloads.Suite() {
		for _, level := range []int{0, 2} {
			for _, mode := range []vm.Mode{vm.ModeInterp, vm.ModeJIT} {
				b, level, mode := b, level, mode
				t.Run(fmt.Sprintf("%s/opt%d/%v", b.Name, level, mode), func(t *testing.T) {
					t.Parallel()
					code := variant(t, b, level)
					chk, last, steps := checkedRun(t, code, mode, 2)
					for _, v := range chk.Violations() {
						t.Errorf("soundness violation: %s", v)
					}
					if b.Checksum != "" && last.Repr() != b.Checksum {
						t.Errorf("checksum: got %s want %s", last.Repr(), b.Checksum)
					}
					rep, err := analysis.Analyze(code)
					if err != nil {
						t.Fatalf("analyze: %v", err)
					}
					sb := rep.Certificate.StepBound
					if sb.Bounded {
						bound := uint64(sb.ModuleSteps) + 2*uint64(sb.RunSteps)
						if steps > bound {
							t.Errorf("static step bound too tight: executed %d > certified %d",
								steps, bound)
						}
					}
				})
			}
		}
	}
}

// reboundCell programs rebind a closure cell through a call. A cell read
// after any call may see the callee's store, so the certificate must not
// carry the last STORE_CELL's value across it.
var reboundCell = []workloads.Benchmark{
	{Name: "cell-guard", Source: `
def run():
    x = 1
    def bump():
        nonlocal x
        x = 5
        return 0
    bump()
    y = x
    if y < 3:
        return 1
    return 2
`},
	{Name: "cell-interval", Source: `
def run():
    x = 1
    def bump():
        nonlocal x
        x = 5
        return 0
    bump()
    y = x
    y = x + 1
    return y
`},
}

// TestReboundCellIsNotTrusted runs the rebound-cell programs at -opt 0..2
// on both engines: every level must return what -opt 0 returns, and the
// certificate must hold on every executed op.
func TestReboundCellIsNotTrusted(t *testing.T) {
	for _, b := range reboundCell {
		var want string
		for level := 0; level <= minipy.MaxOptLevel; level++ {
			code := variant(t, b, level)
			for _, mode := range []vm.Mode{vm.ModeInterp, vm.ModeJIT} {
				chk, last, _ := checkedRun(t, code, mode, 1)
				for _, v := range chk.Violations() {
					t.Errorf("%s opt%d/%v: soundness violation: %s", b.Name, level, mode, v)
				}
				if level == 0 && mode == vm.ModeInterp {
					want = last.Repr()
				} else if got := last.Repr(); got != want {
					t.Errorf("%s opt%d/%v: run() = %s, -opt 0 returned %s", b.Name, level, mode, got, want)
				}
			}
		}
	}
}

// FuzzSyntheticOptLevels is the grammar-aware differential over generated
// workloads: for any generator configuration, -opt 0..2 on both engines
// must return the same run() checksum, and the certificate recomputed for
// each variant must hold on every executed op. The seed corpus is the
// agreement grid plus loop-call, dict, string and branch-entropy mixes at
// two seeds; plain `go test` runs only those.
func FuzzSyntheticOptLevels(f *testing.F) {
	seeds := syntheticGrid()
	for _, seed := range []uint64{42, 43} {
		seeds = append(seeds,
			workloads.SyntheticConfig{LoopIters: 50, Seed: seed},
			workloads.SyntheticConfig{LoopIters: 50, CallEveryN: 3, Seed: seed},
			workloads.SyntheticConfig{LoopIters: 50, DictOps: true, StrOps: true, BranchEntropy: 0.5, Seed: seed},
		)
	}
	for _, c := range seeds {
		f.Add(c.LoopIters, c.CallEveryN, c.DictOps, c.StrOps, c.BranchEntropy, c.Seed)
	}
	f.Fuzz(func(t *testing.T, loopIters, callEveryN int, dictOps, strOps bool, entropy float64, seed uint64) {
		// Clamp to programs that run in milliseconds and generate valid
		// source: the branch period 1/entropy must stay a small integer.
		if !(entropy >= 0) {
			entropy = 0
		}
		if entropy > 0 && entropy < 1.0/64 {
			entropy = 1.0 / 64
		}
		b := workloads.Synthetic(workloads.SyntheticConfig{
			LoopIters:     min(max(loopIters, 1), 256),
			CallEveryN:    min(max(callEveryN, 0), 16),
			DictOps:       dictOps,
			StrOps:        strOps,
			BranchEntropy: min(entropy, 1),
			Seed:          seed,
		})
		var want string
		for level := 0; level <= minipy.MaxOptLevel; level++ {
			code := variant(t, b, level)
			for _, mode := range []vm.Mode{vm.ModeInterp, vm.ModeJIT} {
				chk, last, _ := checkedRun(t, code, mode, 2)
				for _, v := range chk.Violations() {
					t.Errorf("opt%d/%v: soundness violation: %s", level, mode, v)
				}
				if level == 0 && mode == vm.ModeInterp {
					want = last.Repr()
				} else if got := last.Repr(); got != want {
					t.Errorf("opt%d/%v: checksum %s, interp at -opt 0 returned %s", level, mode, got, want)
				}
			}
		}
	})
}

// TestStepBoundCoverage pins which canonical workloads earn a static step
// bound: range-driven loop kernels must be bounded; recursive and
// while-loop workloads must be refused with a reason. Both directions
// matter — a regression that silently stops proving bounds and one that
// starts "proving" bounds for unbounded programs are equally wrong.
func TestStepBoundCoverage(t *testing.T) {
	wantBounded := map[string]bool{
		"matmul": true, "branchy": true,
		"fib": false, "collatz": false, "richards": false, "mandelbrot": false,
	}
	for name, want := range wantBounded {
		b, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		code, err := b.Compile()
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		rep, err := analysis.Analyze(code)
		if err != nil {
			t.Fatalf("analyze: %v", err)
		}
		sb := rep.Certificate.StepBound
		if sb.Bounded != want {
			t.Errorf("%s: Bounded=%v want %v (reason %q)", name, sb.Bounded, want, sb.Reason)
		}
		if !want && sb.Reason == "" {
			t.Errorf("%s: unbounded certificate must state a reason", name)
		}
	}
}
