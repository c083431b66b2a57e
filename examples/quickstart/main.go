// Quickstart: compile a MiniPy workload, run it under both engines with the
// rigorous methodology, and print a statistically sound comparison.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/methodology"
	"repro/internal/noise"
	"repro/internal/stats"
	"repro/internal/workloads"
)

func main() {
	// 1. Pick a workload. Any MiniPy program with a run() function works;
	// here we define one inline instead of using the built-in suite.
	bench := workloads.Benchmark{
		Name:        "sum-of-squares",
		Description: "toy hot loop",
		Class:       workloads.ClassNumeric,
		Source: `
def run():
    total = 0
    for i in range(3000):
        total += i * i
    return total
`,
	}

	// 2. Run the rigorous experiment design: multiple fresh VM invocations,
	// multiple iterations each, on a simulated noisy machine. The
	// interpreter and JIT arms each draw their own noise; the zero
	// supervision policy retries nothing and requires every invocation to
	// succeed.
	engine := core.New(core.Config{Seed: 42, Invocations: 10, Noise: noise.Default()})
	interp, jit, err := engine.RunPair(bench, 30)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Analyze: warmup-aware, invocation-level, with a bootstrap CI.
	rig := methodology.Rigorous{Seed: 1}
	cmp := rig.Compare(interp.Hierarchical(), jit.Hierarchical())

	fmt.Printf("benchmark: %s (checksum %s)\n", bench.Name, interp.Invocations[0].Checksum)
	fmt.Printf("interpreter mean: %.3f ms\n",
		1e3*stats.Mean(interp.Hierarchical().InvocationMeans()))
	fmt.Printf("JIT mean:         %.3f ms\n",
		1e3*stats.Mean(jit.Hierarchical().InvocationMeans()))
	fmt.Printf("JIT speedup: %.2fx  (95%% CI [%.2f, %.2f])  verdict: %s\n",
		cmp.Speedup, cmp.CI.Lo, cmp.CI.Hi, cmp.Verdict)
	fmt.Printf("warmup iterations excluded per invocation: up to %d\n", cmp.WarmupDropped)

	// 4. Contrast with what a naive single run would have reported.
	naive := methodology.SingleRun{}.Compare(interp.Hierarchical(), jit.Hierarchical())
	fmt.Printf("naive single-run estimate: %.2fx (no CI, first iterations only)\n", naive.Speedup)
}
