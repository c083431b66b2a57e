// adaptive-precision: demonstrate the two extensions of the rigorous
// methodology — the adaptive sequential design ("benchmark until the CI is
// tight enough, then stop"), which is the supervisor's stopping rule
// (harness.Options.TargetRelHalfWidth: batches of 5 invocations up to the
// Invocations cap), and suite-level comparison with family-wise error
// control (Holm–Bonferroni).
//
//	go run ./examples/adaptive-precision
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/methodology"
	"repro/internal/noise"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/workloads"
)

func main() {
	runner := harness.NewRunner()
	sup := harness.NewSupervisor(runner, harness.SupervisorOptions{})
	ctx := context.Background()

	// Part 1: adaptive precision on three machines.
	fmt.Println("Adaptive design: invocations needed for a ±1% CI on 'collatz'")
	fmt.Println("--------------------------------------------------------------")
	machines := []struct {
		name string
		p    noise.Params
	}{
		{"quiet lab machine ", noise.Quiet()},
		{"default desktop   ", noise.Default()},
		{"noisy CI runner   ", noise.Noisy()},
	}
	b, _ := workloads.ByName("collatz")
	for _, m := range machines {
		res, err := sup.Run(ctx, b, harness.Options{
			Invocations: 80, Iterations: 20, Seed: 11, Noise: m.p,
			TargetRelHalfWidth: 0.01,
		})
		if err != nil {
			log.Fatal(err)
		}
		status := "converged"
		if !res.MeetsTarget() {
			status = "budget exhausted"
		}
		fmt.Printf("%s %3d invocations, CI ±%.2f%%  (%s)\n",
			m.name, len(res.Invocations), 100*res.StoppingCI().RelHalfWidth(), status)
	}

	// Part 2: suite comparison with family-wise error control.
	fmt.Println()
	fmt.Println("Suite comparison (interp vs JIT) with Holm–Bonferroni correction")
	fmt.Println("-----------------------------------------------------------------")
	suite := workloads.Suite()[:8] // keep the example quick
	engine := core.New(core.Config{Seed: 21, Invocations: 8, Noise: noise.Default()})
	var names []string
	var baselines, treatments []stats.HierarchicalSample
	for _, wl := range suite {
		interp, jit, err := engine.RunPair(wl, 20)
		if err != nil {
			log.Fatal(err)
		}
		names = append(names, wl.Name)
		baselines = append(baselines, interp.Hierarchical())
		treatments = append(treatments, jit.Hierarchical())
	}
	results := methodology.CompareSuite(names, baselines, treatments,
		methodology.Rigorous{Seed: 5}, 0.05)
	t := report.NewTable("", "benchmark", "speedup", "p-value", "verdict (Holm-adjusted)")
	for _, r := range results {
		t.AddRow(r.Benchmark, r.Speedup, r.PValue, r.Verdict.String())
	}
	fmt.Print(t.String())
	fmt.Println()
	fmt.Println("Verdicts that do not survive the family-wise correction are")
	fmt.Println("downgraded to indistinguishable — claiming 16 'significant'")
	fmt.Println("results at per-benchmark alpha inflates the suite-level error.")
}
