// adaptive-precision: demonstrate the two extensions of the rigorous
// methodology — the adaptive sequential design ("benchmark until the CI is
// tight enough, then stop") and suite-level comparison with family-wise
// error control (Holm–Bonferroni).
//
//	go run ./examples/adaptive-precision
package main

import (
	"fmt"
	"log"

	"repro/internal/harness"
	"repro/internal/methodology"
	"repro/internal/noise"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/workloads"
)

func main() {
	runner := harness.NewRunner()

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
		res, err := runner.RunAdaptive(b, harness.AdaptiveOptions{
			Base: harness.Options{
				Invocations: 5, Iterations: 20, Seed: 11, Noise: m.p,
			},
			TargetRelHalfWidth: 0.01,
			MaxInvocations:     80,
		})
		if err != nil {
			log.Fatal(err)
		}
		status := "converged"
		if !res.Converged {
			status = "budget exhausted"
		}
		fmt.Printf("%s %3d invocations, CI ±%.2f%%  (%s)\n",
			m.name, len(res.Result.Invocations), 100*res.CI.RelHalfWidth(), status)
	}

	// Part 2: suite comparison with family-wise error control.
	fmt.Println()
	fmt.Println("Suite comparison (interp vs JIT) with Holm–Bonferroni correction")
	fmt.Println("-----------------------------------------------------------------")
	suite := workloads.Suite()[:8] // keep the example quick
	sup := harness.NewSupervisor(runner, harness.SupervisorOptions{})
	var names []string
	var baselines, treatments []stats.HierarchicalSample
	for _, wl := range suite {
		interp, jit, err := sup.RunPair(wl, harness.Options{
			Invocations: 8, Iterations: 20, Seed: 21, Noise: noise.Default(),
		})
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
