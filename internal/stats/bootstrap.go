package stats

import (
	"math"
	"sort"
)

// DefaultBootstrapResamples is the resample count used when 0 is passed.
const DefaultBootstrapResamples = 2000

// BootstrapCI returns a percentile-bootstrap confidence interval for an
// arbitrary statistic of one sample. resamples == 0 selects the default.
func BootstrapCI(xs []float64, stat func([]float64) float64,
	confidence float64, resamples int, rng *RNG) Interval {
	if len(xs) == 0 {
		nan := math.NaN()
		return Interval{Lo: nan, Hi: nan, Confidence: confidence}
	}
	if resamples <= 0 {
		resamples = DefaultBootstrapResamples
	}
	estimates := make([]float64, resamples)
	buf := make([]float64, len(xs))
	for r := 0; r < resamples; r++ {
		for i := range buf {
			buf[i] = xs[rng.Intn(len(xs))]
		}
		estimates[r] = stat(buf)
	}
	sort.Float64s(estimates)
	alpha := (1 - confidence) / 2
	return Interval{
		Lo:         quantileSorted(estimates, alpha),
		Hi:         quantileSorted(estimates, 1-alpha),
		Confidence: confidence,
	}
}

// BootstrapMeanCI is BootstrapCI specialized to the mean.
func BootstrapMeanCI(xs []float64, confidence float64, resamples int, rng *RNG) Interval {
	return BootstrapCI(xs, Mean, confidence, resamples, rng)
}

// HierarchicalSample is a two-level (invocation × iteration) measurement
// matrix: Times[i][j] is iteration j of invocation i. This is the data shape
// produced by the rigorous methodology's experiment design.
type HierarchicalSample struct {
	Times [][]float64
}

// InvocationMeans returns the per-invocation iteration means — the level-2
// statistics the Kalibera–Jones analysis and hierarchical bootstrap operate
// on.
func (h HierarchicalSample) InvocationMeans() []float64 {
	out := make([]float64, len(h.Times))
	for i, iter := range h.Times {
		out[i] = Mean(iter)
	}
	return out
}

// Flatten concatenates all iterations (what naive analyses do).
func (h HierarchicalSample) Flatten() []float64 {
	var out []float64
	for _, iter := range h.Times {
		out = append(out, iter...)
	}
	return out
}

// BootstrapHierarchicalRatioCI bootstraps the ratio of grand means between
// two two-level experiments by resampling invocations first and iterations
// within each resampled invocation second, following Kalibera & Jones'
// recommended hierarchical bootstrap for speedup CIs.
func BootstrapHierarchicalRatioCI(a, b HierarchicalSample,
	confidence float64, resamples int, rng *RNG) Interval {
	if len(a.Times) == 0 || len(b.Times) == 0 {
		nan := math.NaN()
		return Interval{Lo: nan, Hi: nan, Confidence: confidence}
	}
	if resamples <= 0 {
		resamples = DefaultBootstrapResamples
	}
	resampleGrandMean := func(h HierarchicalSample) float64 {
		n := len(h.Times)
		total, count := 0.0, 0
		for i := 0; i < n; i++ {
			inv := h.Times[rng.Intn(n)]
			m := len(inv)
			for j := 0; j < m; j++ {
				total += inv[rng.Intn(m)]
				count++
			}
		}
		return total / float64(count)
	}
	estimates := make([]float64, resamples)
	for r := 0; r < resamples; r++ {
		estimates[r] = resampleGrandMean(a) / resampleGrandMean(b)
	}
	sort.Float64s(estimates)
	alpha := (1 - confidence) / 2
	return Interval{
		Lo:         quantileSorted(estimates, alpha),
		Hi:         quantileSorted(estimates, 1-alpha),
		Confidence: confidence,
	}
}
