package methodology

import (
	"repro/internal/noise"
	"repro/internal/stats"
)

// TrialGenerator synthesizes measurement matrices from a noise-free
// per-iteration base-time profile. Because the simulator applies noise
// after cost accounting, one engine run per benchmark yields the base
// profile, and unlimited independent trials (different noise seeds) can be
// synthesized from it — this is what makes the misleading-conclusion
// experiments (Table 4, Figure 8) cheap enough to run hundreds of trials.
type TrialGenerator struct {
	// Base[j] is the noise-free time of iteration j within an invocation
	// (the JIT warmup shape lives here). Iterations beyond len(Base) reuse
	// the last value (steady state).
	Base  []float64
	Noise noise.Params
}

// Sample produces one experiment's measurement matrix for the given seed.
func (g TrialGenerator) Sample(seed uint64, invocations, iterations int) stats.HierarchicalSample {
	times := make([][]float64, invocations)
	for i := range times {
		times[i] = noise.Perturb(g.Noise, seed, i, g.Base, iterations)
	}
	return stats.HierarchicalSample{Times: times}
}

// Scaled returns a copy of the generator with every base time divided by
// factor — i.e. a synthetic treatment that is `factor`× faster across the
// whole profile. Used for the effect-size sweep.
func (g TrialGenerator) Scaled(factor float64) TrialGenerator {
	base := make([]float64, len(g.Base))
	for i, b := range g.Base {
		base[i] = b / factor
	}
	return TrialGenerator{Base: base, Noise: g.Noise}
}

// TrueSpeedupOver returns the ground-truth steady-state speedup of g
// (baseline) over other (treatment).
func (g TrialGenerator) TrueSpeedupOver(other TrialGenerator) float64 {
	return TrueSpeedup(g.Base, other.Base)
}

// ErrorRates aggregates a methodology's behaviour over many trials.
type ErrorRates struct {
	Methodology string
	Trials      int
	Misleading  int // wrong direction, or difference claimed on a true tie
	Missed      int // true difference not detected
	MeanRelErr  float64
}

// MisleadingRate returns Misleading/Trials.
func (e ErrorRates) MisleadingRate() float64 {
	if e.Trials == 0 {
		return 0
	}
	return float64(e.Misleading) / float64(e.Trials)
}

// MissRate returns Missed/Trials.
func (e ErrorRates) MissRate() float64 {
	if e.Trials == 0 {
		return 0
	}
	return float64(e.Missed) / float64(e.Trials)
}

// EvaluateMethodology runs `trials` synthetic experiments comparing baseline
// vs treatment generators and scores m against the ground truth.
// equivBand is the relative effect below which the truth counts as a tie
// (the paper's "practically equivalent" band).
func EvaluateMethodology(m Methodology, baseline, treatment TrialGenerator,
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
