package methodology

import (
	"math"
	"testing"

	"repro/internal/noise"
	"repro/internal/stats"
)

// sequentialEvaluate is EvaluateMethodology before its trials ran through
// stats.ParallelFor: one trial after another, each drawing its seed pair
// in turn. It is the reference the parallel form must match bit for bit.
func sequentialEvaluate(m Methodology, baseline, treatment TrialGenerator,
	invocations, iterations, trials int, equivBand float64, seed uint64) ErrorRates {
	truthSpeedup := baseline.TrueSpeedupOver(treatment)
	truth := VerdictFor(truthSpeedup, equivBand)
	out := ErrorRates{Methodology: m.Name(), Trials: trials}
	sumRelErr := 0.0
	rng := stats.NewRNG(seed)
	for t := 0; t < trials; t++ {
		sa := rng.Uint64()
		sb := rng.Uint64()
		hsA := baseline.Sample(sa, invocations, iterations)
		hsB := treatment.Sample(sb, invocations, iterations)
		cmp := m.Compare(hsA, hsB)
		if Misleading(cmp.Verdict, truth) {
			out.Misleading++
		}
		if Missed(cmp.Verdict, truth) {
			out.Missed++
		}
		sumRelErr += RelativeError(cmp.Speedup, truthSpeedup)
	}
	out.MeanRelErr = sumRelErr / float64(trials)
	return out
}

// TestEvaluateMethodologyBitIdentical checks the pooled parallel trials
// against the sequential ones that draw fresh samples. The shapes case
// runs two generator pairs of different designs back to back, so that a
// pooled trial buffer and pooled trim headers are reused across shapes.
func TestEvaluateMethodologyBitIdentical(t *testing.T) {
	p := noise.Default()
	type pair struct {
		name                    string
		baseline, treatment     TrialGenerator
		invocations, iterations int
	}
	flat := pair{"flat", flatGen(1, p), flatGen(1, p).Scaled(1.02), 5, 12}
	warmup := pair{"jit-warmup", flatGen(1, p), warmupGen(0.4, p), 5, 12}
	wide := pair{"jit-warmup 9x7", flatGen(1, p), warmupGen(0.4, p), 9, 7}
	long := pair{"flat 3x31", flatGen(1, p).Scaled(0.97), flatGen(1, p), 3, 31}
	for _, c := range []struct {
		name  string
		pairs []pair
	}{
		{"flat", []pair{flat}},
		{"jit-warmup", []pair{warmup}},
		{"shapes", []pair{wide, long, warmup, long}},
	} {
		for _, m := range All(11) {
			for _, trials := range []int{1, 2, 10, 37} {
				for _, pr := range c.pairs {
					want := sequentialEvaluate(m, pr.baseline, pr.treatment, pr.invocations, pr.iterations, trials, 0.01, 99)
					got := EvaluateMethodology(m, pr.baseline, pr.treatment, pr.invocations, pr.iterations, trials, 0.01, 99)
					if got.Methodology != want.Methodology || got.Trials != want.Trials ||
						got.Misleading != want.Misleading || got.Missed != want.Missed ||
						math.Float64bits(got.MeanRelErr) != math.Float64bits(want.MeanRelErr) {
						t.Fatalf("%s: %s, %s, %d trials: %+v, sequential %+v", c.name, pr.name, m.Name(), trials, got, want)
					}
				}
			}
		}
	}
}

// perSampleTrim is trimWarmup before it classified both samples'
// invocations through one stats.ParallelFor: one sample at a time.
func perSampleTrim(h stats.HierarchicalSample) (int, stats.HierarchicalSample) {
	out := make([][]float64, len(h.Times))
	maxDropped := 0
	for i, inv := range h.Times {
		res := stats.ClassifySteadyState(inv, 0, 0, 0)
		start := 0
		switch res.Class {
		case stats.ClassWarmup, stats.ClassSlowdown:
			start = res.SteadyStart
		case stats.ClassNoSteadyState:
			start = len(inv) / 2
		}
		if limit := int(maxWarmupFrac * float64(len(inv))); start > limit {
			start = limit
		}
		if start > maxDropped {
			maxDropped = start
		}
		out[i] = inv[start:]
	}
	return maxDropped, stats.HierarchicalSample{Times: out}
}

// TestTrimWarmupMatchesPerSample checks the joint warm-up trim against the
// per-sample one on ragged samples of warming, slowing and flat
// invocations: the same cut of every invocation, and the same
// WarmupDropped from Compare.
func TestTrimWarmupMatchesPerSample(t *testing.T) {
	gen := stats.NewRNG(31)
	ragged := func() stats.HierarchicalSample {
		times := make([][]float64, gen.Intn(9))
		for i := range times {
			times[i] = make([]float64, 1+gen.Intn(40))
			warm := gen.Intn(len(times[i])/2 + 1)
			shift := 1 + 2*(gen.Float64()-0.3) // a warm-up above 1, a slowdown below
			for j := range times[i] {
				times[i][j] = 1 + 0.01*gen.NormFloat64()
				if j < warm {
					times[i][j] *= shift
				}
			}
		}
		return stats.HierarchicalSample{Times: times}
	}
	r := Rigorous{Seed: 3, Resamples: 50}
	for trial := 0; trial < 60; trial++ {
		a, b := ragged(), ragged()
		wa, sa := perSampleTrim(a)
		wb, sb := perSampleTrim(b)
		dropped, g := trimWarmup(a, b)
		if want := max(wa, wb); dropped != want {
			t.Fatalf("trial %d: dropped %d, per sample %d", trial, dropped, want)
		}
		for k, pair := range [2][2]stats.HierarchicalSample{{g.a, sa}, {g.b, sb}} {
			got, want := pair[0].Times, pair[1].Times
			if len(got) != len(want) {
				t.Fatalf("trial %d, sample %d: %d invocations, per sample %d", trial, k, len(got), len(want))
			}
			for i := range want {
				if len(got[i]) != len(want[i]) {
					t.Fatalf("trial %d, sample %d, invocation %d: kept %d iterations, per sample %d",
						trial, k, i, len(got[i]), len(want[i]))
				}
			}
		}
		g.release()
		if len(a.Times) > 0 && len(b.Times) > 0 {
			if got := r.Compare(a, b).WarmupDropped; got != max(wa, wb) {
				t.Fatalf("trial %d: Compare dropped %d, per sample %d", trial, got, max(wa, wb))
			}
		}
	}
}
