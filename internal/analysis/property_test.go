package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/minipy"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// runProgram compiles nothing — it executes an already-compiled module and
// its run() entry point on the interpreter, returning the first error.
func runProgram(code *minipy.Code) error {
	in := vm.New(vm.Config{Mode: vm.ModeInterp, MaxSteps: 200_000_000})
	if _, err := in.RunModule(code); err != nil {
		return err
	}
	_, err := in.CallGlobal("run")
	return err
}

// syntheticGrid spans the generator's feature axes at five seeds.
func syntheticGrid() []workloads.SyntheticConfig {
	var grid []workloads.SyntheticConfig
	for _, seed := range []uint64{1, 7, 42, 1234, 99999} {
		grid = append(grid,
			workloads.SyntheticConfig{LoopIters: 60, Seed: seed},
			workloads.SyntheticConfig{LoopIters: 60, CallEveryN: 3, Seed: seed},
			workloads.SyntheticConfig{LoopIters: 60, DictOps: true, Seed: seed},
			workloads.SyntheticConfig{LoopIters: 60, StrOps: true, Seed: seed},
			workloads.SyntheticConfig{LoopIters: 60, CallEveryN: 2, DictOps: true, StrOps: true,
				BranchEntropy: 0.7, Seed: seed},
		)
	}
	return grid
}

// corpus assembles the agreement-test programs: the full shipped suite, the
// extended set, and the synthetic grid.
func corpus() []workloads.Benchmark {
	all := append(append([]workloads.Benchmark{}, workloads.Suite()...),
		workloads.Extended()...)
	for _, cfg := range syntheticGrid() {
		all = append(all, workloads.Synthetic(cfg))
	}
	return all
}

// TestAnalyzerAgreesWithVM is the soundness direction of the agreement
// property: any program the analyzer passes (no certain-error findings)
// must execute without a type/name error on the VM. The corpus is the whole
// shipped suite plus a generator grid, so a transfer-function bug that
// flags valid code (or a generator change that emits invalid code) fails
// here with the offending program named.
func TestAnalyzerAgreesWithVM(t *testing.T) {
	for _, b := range corpus() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			code, err := minipy.CompileSource(b.Source)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			rep, err := analysis.Analyze(code)
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			if errs := rep.Errors(); len(errs) != 0 {
				t.Fatalf("analyzer flagged a corpus program as certainly broken: %v", errs)
			}
			if err := runProgram(code); err != nil {
				t.Fatalf("analyzer-certified program failed at runtime: %v", err)
			}
		})
	}
}

// TestAnalyzerFlagsMatchRuntime is the completeness spot-check: each crafted
// program carries a statically certain defect; the analyzer must flag it AND
// the VM must actually raise on the flagged path, confirming the "certain"
// claim is not vacuous.
func TestAnalyzerFlagsMatchRuntime(t *testing.T) {
	for _, tc := range analysis.RuntimeDefects {
		t.Run(tc.Name, func(t *testing.T) {
			code, err := minipy.CompileSource(tc.Src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			rep, err := analysis.Analyze(code)
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			if len(rep.Errors()) == 0 {
				t.Fatal("analyzer missed a certain defect")
			}
			if err := runProgram(code); err == nil {
				t.Fatal("VM ran a program the analyzer called certainly broken — the flag is a false positive")
			}
		})
	}
}
