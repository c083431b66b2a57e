package controlapi

import "testing"

// TestExecuteNoiseNoneIsNoiseless: a campaign with noise "none" measures
// every iteration at its simulated cycles over the clock rate, bit for bit.
func TestExecuteNoiseNoneIsNoiseless(t *testing.T) {
	spec := CampaignSpec{Benchmarks: []string{"fib", "nbody"}, Mode: "jit", Invocations: 2, Iterations: 3, Seed: 7, Noise: "none"}
	results, err := Execute(spec, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		hz := res.Opts.FreqGHz * 1e9
		for i, inv := range res.Invocations {
			for j, c := range inv.Cycles {
				if got, want := inv.TimesSec[j], float64(c)/hz; got != want {
					t.Fatalf("%s invocation %d iteration %d: %v s, want %d cycles / %v Hz = %v s",
						res.Benchmark, i, j, got, c, hz, want)
				}
			}
		}
	}
}
