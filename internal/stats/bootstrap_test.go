package stats

import (
	"math"
	"testing"
)

func normalSample(rng *RNG, n int, mu, sigma float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = mu + sigma*rng.NormFloat64()
	}
	return xs
}

func TestBootstrapMeanCIBracketsSampleMean(t *testing.T) {
	rng := NewRNG(1)
	xs := normalSample(rng, 50, 10, 2)
	ci := BootstrapMeanCI(xs, 0.95, 1000, rng)
	if !ci.Contains(Mean(xs)) {
		t.Fatalf("bootstrap CI %+v does not contain the sample mean %v", ci, Mean(xs))
	}
	if ci.HalfWidth() <= 0 {
		t.Fatal("degenerate CI")
	}
}

func TestBootstrapCICoverage(t *testing.T) {
	rng := NewRNG(2)
	const trials = 400
	covered := 0
	for tr := 0; tr < trials; tr++ {
		xs := normalSample(rng, 25, 3, 1)
		if BootstrapMeanCI(xs, 0.95, 500, rng).Contains(3) {
			covered++
		}
	}
	rate := float64(covered) / trials
	if rate < 0.90 || rate > 0.98 {
		t.Fatalf("bootstrap coverage %v, want ~0.95 (percentile bootstrap tolerates slight undercoverage)", rate)
	}
}

func TestBootstrapDeterministicPerSeed(t *testing.T) {
	xs := normalSample(NewRNG(3), 30, 0, 1)
	a := BootstrapMeanCI(xs, 0.95, 500, NewRNG(77))
	b := BootstrapMeanCI(xs, 0.95, 500, NewRNG(77))
	if a != b {
		t.Fatalf("same seed, different CIs: %+v vs %+v", a, b)
	}
	c := BootstrapMeanCI(xs, 0.95, 500, NewRNG(78))
	if a == c {
		t.Fatal("different seeds should almost surely differ")
	}
}

func TestBootstrapEmptyInputs(t *testing.T) {
	rng := NewRNG(6)
	if !math.IsNaN(BootstrapMeanCI(nil, 0.95, 10, rng).Lo) {
		t.Fatal("empty input must give NaN CI")
	}
}

func TestHierarchicalSampleHelpers(t *testing.T) {
	h := HierarchicalSample{Times: [][]float64{{1, 2, 3}, {4, 5, 6}}}
	means := h.InvocationMeans()
	if len(means) != 2 || means[0] != 2 || means[1] != 5 {
		t.Fatalf("invocation means %v", means)
	}
	flat := h.Flatten()
	if len(flat) != 6 || flat[0] != 1 || flat[5] != 6 {
		t.Fatalf("flatten %v", flat)
	}
}

func TestBootstrapHierarchicalRatioCI(t *testing.T) {
	rng := NewRNG(7)
	mk := func(mu float64) HierarchicalSample {
		times := make([][]float64, 10)
		for i := range times {
			invEffect := 1 + 0.02*rng.NormFloat64()
			times[i] = make([]float64, 20)
			for j := range times[i] {
				times[i][j] = mu * invEffect * (1 + 0.005*rng.NormFloat64())
			}
		}
		return HierarchicalSample{Times: times}
	}
	a := mk(3.0)
	b := mk(1.0)
	ci := BootstrapHierarchicalRatioCI(a, b, 0.95, 1000, rng)
	if !ci.Contains(3.0) {
		t.Fatalf("hierarchical ratio CI %+v should contain 3", ci)
	}
	// With a 2% invocation effect and n=10, the CI must not be absurdly
	// tight (that is the flattening mistake) — expect > 0.5% half-width.
	if ci.RelHalfWidth() < 0.005 {
		t.Fatalf("hierarchical CI suspiciously tight: %+v", ci)
	}
}

func TestBootstrapCIGenericStatistic(t *testing.T) {
	rng := NewRNG(8)
	xs := normalSample(rng, 60, 0, 1)
	ci := BootstrapCI(xs, func(s []float64) float64 { return Quantile(s, 0.9) },
		0.9, 500, rng)
	if !(ci.Lo < ci.Hi) {
		t.Fatalf("bad CI %+v", ci)
	}
	q := Quantile(xs, 0.9)
	if !ci.Contains(q) {
		t.Fatalf("CI %+v misses sample P90 %v", ci, q)
	}
}
