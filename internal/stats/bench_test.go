package stats

import "testing"

// Wall-clock kernels of one rigorous comparison: Rigorous.Compare spends
// nearly all its time in the hierarchical bootstrap and in steady-state
// classification. `make bench-go` runs them at -cpu 2 and gates their
// allocs/op and B/op against the committed BENCH_stats.json.

// benchInvocation is one 30-iteration invocation: warm-up multipliers on
// the leading iterations, then a steady level with a per-invocation effect
// and per-iteration jitter.
func benchInvocation(rng *RNG, level float64, warmup ...float64) []float64 {
	xs := make([]float64, 30)
	effect := 1 + 0.02*rng.NormFloat64()
	for i := range xs {
		xs[i] = level * effect * (1 + 0.01*rng.NormFloat64())
		if i < len(warmup) {
			xs[i] *= warmup[i]
		}
	}
	return xs
}

var (
	benchInterval Interval
	benchSteady   SteadyStateResult
)

// BenchmarkBootstrapHierarchicalRatioCI times the default 2000-resample
// interval on a 10×30 interpreter/JIT pair with each invocation's warm-up
// cut, as Rigorous.Compare sees it.
func BenchmarkBootstrapHierarchicalRatioCI(b *testing.B) {
	rng := NewRNG(1)
	trim := func(inv []float64) []float64 { return inv[ClassifySteadyState(inv, 0, 0, 0).SteadyStart:] }
	var interp, jit HierarchicalSample
	for i := 0; i < 10; i++ {
		interp.Times = append(interp.Times, trim(benchInvocation(rng, 1, 1.1)))
		jit.Times = append(jit.Times, trim(benchInvocation(rng, 0.3, 3.5, 2, 1.2)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchInterval = BootstrapHierarchicalRatioCI(interp, jit, 0.95, 0, NewRNG(7))
	}
}

// BenchmarkClassifySteadyState times the classification of one JIT-shaped
// invocation: despiking, PELT and the leading-transient check.
func BenchmarkClassifySteadyState(b *testing.B) {
	inv := benchInvocation(NewRNG(2), 0.3, 3.5, 2, 1.2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSteady = ClassifySteadyState(inv, 0, 0, 0)
	}
}
