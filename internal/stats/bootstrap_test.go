package stats

import (
	"math"
	"runtime"
	"sort"
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

// sequentialRatioCI is the single-stream hierarchical bootstrap that the
// chunked one replaced: every resample draws from rng in turn. It is the
// reference the chunked form must match bit for bit, rng state included.
func sequentialRatioCI(a, b HierarchicalSample, confidence float64, resamples int, rng *RNG) ([]float64, Interval) {
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
	sorted := append([]float64(nil), estimates...)
	sort.Float64s(sorted)
	alpha := (1 - confidence) / 2
	return estimates, Interval{
		Lo:         quantileSorted(sorted, alpha),
		Hi:         quantileSorted(sorted, 1-alpha),
		Confidence: confidence,
	}
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

func TestHierarchicalBootstrapBitIdentical(t *testing.T) {
	gen := NewRNG(17)
	ragged := func() HierarchicalSample {
		times := make([][]float64, 1+gen.Intn(12))
		for i := range times {
			times[i] = make([]float64, 1+gen.Intn(40))
			for j := range times[i] {
				times[i][j] = gen.LogNormal(0, 0.3)
			}
		}
		return HierarchicalSample{Times: times}
	}
	for trial := 0; trial < 8; trial++ {
		a, b := ragged(), ragged()
		// The fan-out floor: the fewest resamples bootstrapWorkers splits.
		draws := len(a.Times) + len(b.Times) + len(a.Flatten()) + len(b.Flatten())
		fanOut := max(2, (2*bootstrapChunkDraws+draws-1)/draws)
		if got := bootstrapWorkers(fanOut-1, a, b); got != 1 {
			t.Fatalf("%d resamples of %d draws: %d workers below the fan-out floor", fanOut-1, draws, got)
		}
		if got, want := bootstrapWorkers(fanOut, a, b), min(2, runtime.GOMAXPROCS(0)); got != want {
			t.Fatalf("%d resamples of %d draws: %d workers at the fan-out floor, want %d", fanOut, draws, got, want)
		}
		for _, resamples := range []int{1, 7, fanOut - 1, fanOut, 1999, 2000} {
			seed := gen.Uint64()
			ref := NewRNG(seed)
			ref.NormFloat64() // leave a Box–Muller spare that must survive
			wantEst, want := sequentialRatioCI(a, b, 0.95, resamples, ref)

			rng := NewRNG(seed)
			rng.NormFloat64()
			got := BootstrapHierarchicalRatioCI(a, b, 0.95, resamples, rng)
			if !sameBits(got.Lo, want.Lo) || !sameBits(got.Hi, want.Hi) || got.Confidence != want.Confidence {
				t.Fatalf("trial %d, %d resamples: interval %+v, sequential %+v", trial, resamples, got, want)
			}
			if *rng != *ref {
				t.Fatalf("trial %d, %d resamples: rng ends at %+v, sequential at %+v", trial, resamples, *rng, *ref)
			}
			// With the budget claimed, every chunk is filled inline.
			for _, exhausted := range []bool{false, true} {
				for _, workers := range []int{2, 3, 5} {
					if workers > resamples {
						continue
					}
					release := func() {}
					if exhausted {
						release = claimBudget()
					}
					est := make([]float64, resamples)
					rng := NewRNG(seed)
					rng.NormFloat64()
					fillRatios(est, a, b, workers, rng)
					release()
					for r := range est {
						if !sameBits(est[r], wantEst[r]) {
							t.Fatalf("trial %d, %d resamples, %d workers, exhausted %v: ratio %d = %v, sequential %v",
								trial, resamples, workers, exhausted, r, est[r], wantEst[r])
						}
					}
					if *rng != *ref {
						t.Fatalf("trial %d, %d resamples, %d workers, exhausted %v: rng ends at %+v, sequential at %+v",
							trial, resamples, workers, exhausted, *rng, *ref)
					}
				}
			}
		}
	}
}

// TestPercentileIntervalMatchesSort checks the selected quantiles against
// sort.Float64s and quantileSorted, the sort they replaced, bit for bit,
// on samples with ties, infinities and NaNs. Zeros are all +0: the sort
// leaves +0 and -0 in no fixed order, so neither can a selection match it.
// A NaN quantile matches any NaN: which operand's payload an addition of
// two NaNs keeps depends on the compiler's operand order, not on the data.
func TestPercentileIntervalMatchesSort(t *testing.T) {
	gen := NewRNG(29)
	special := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0}
	confidence := 0.95
	alpha := (1 - confidence) / 2 // in float64, as percentileInterval has it
	for n := 1; n <= 300; n++ {
		xs := make([]float64, n)
		for i := range xs {
			switch u := gen.Float64(); {
			case u < 0.05:
				xs[i] = special[gen.Intn(len(special))]
			case u < 0.35:
				xs[i] = float64(1 + gen.Intn(4)) // ties
			default:
				xs[i] = gen.LogNormal(0, 1)
			}
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, q := range []float64{0, alpha, 0.5, 1 - alpha, 1, gen.Float64()} {
			s := append([]float64(nil), xs...)
			got, want := selectQuantile(s, q), quantileSorted(sorted, q)
			if !sameQuantile(got, want) {
				t.Fatalf("n=%d, q=%v: selected %v, sorted %v (sample %v)", n, q, got, want, xs)
			}
			sort.Float64s(s)
			for i := range s {
				if !sameBits(s[i], sorted[i]) {
					t.Fatalf("n=%d, q=%v: selection lost or changed %v", n, q, sorted[i])
				}
			}
		}
		got := percentileInterval(append([]float64(nil), xs...), confidence)
		want := Interval{Lo: quantileSorted(sorted, alpha), Hi: quantileSorted(sorted, 1-alpha), Confidence: confidence}
		if !sameQuantile(got.Lo, want.Lo) || !sameQuantile(got.Hi, want.Hi) || got.Confidence != want.Confidence {
			t.Fatalf("n=%d: interval %+v, sorted %+v", n, got, want)
		}
	}
}

func sameQuantile(x, y float64) bool { return sameBits(x, y) || (math.IsNaN(x) && math.IsNaN(y)) }
