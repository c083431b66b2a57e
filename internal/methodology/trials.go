package methodology

import (
	"sync"

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
	flat := make([]float64, invocations*iterations)
	h := stats.HierarchicalSample{Times: shapeRows(nil, flat, invocations, iterations)}
	g.fill(h, seed)
	return h
}

// fill sets every invocation of h to the seed's draw of it: the one loop
// behind Sample and EvaluateMethodology's pooled trials.
func (g TrialGenerator) fill(h stats.HierarchicalSample, seed uint64) {
	for i, row := range h.Times {
		noise.Perturb(row, g.Noise, seed, i, g.Base)
	}
}

// shapeRows returns rows, resized, set to invocations consecutive rows of
// flat, iterations values each.
func shapeRows(rows [][]float64, flat []float64, invocations, iterations int) [][]float64 {
	rows = resize(rows, invocations)
	for i := range rows {
		rows[i] = flat[i*iterations : (i+1)*iterations : (i+1)*iterations]
	}
	return rows
}

// trialSamples is one trial's pair of samples: one backing array for
// both, and a row header slice for each. EvaluateMethodology keeps them in
// trialPool between trials, so a Table-4 row allocates no sample.
type trialSamples struct {
	flat                []float64
	baseline, treatment stats.HierarchicalSample
}

var trialPool sync.Pool

// getTrialSamples takes a *trialSamples from trialPool and shapes it to
// invocations × iterations, growing what is too small. Its values are
// stale until the caller fills both samples.
func getTrialSamples(invocations, iterations int) *trialSamples {
	s, _ := trialPool.Get().(*trialSamples)
	if s == nil {
		s = new(trialSamples)
	}
	n := invocations * iterations
	if cap(s.flat) < 2*n {
		s.flat = make([]float64, 2*n)
	}
	s.baseline.Times = shapeRows(s.baseline.Times, s.flat[:n], invocations, iterations)
	s.treatment.Times = shapeRows(s.treatment.Times, s.flat[n:2*n], invocations, iterations)
	return s
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
// (the paper's "practically equivalent" band). It draws every trial's seed
// pair first, in trial order, runs the trials through stats.ParallelFor,
// and adds up their results in trial order: the rates are the same bits at
// any GOMAXPROCS. Each trial draws its two samples into buffers from
// trialPool and puts them back once m.Compare has returned, which the
// Methodology contract allows.
func EvaluateMethodology(m Methodology, baseline, treatment TrialGenerator,
	invocations, iterations, trials int, equivBand float64, seed uint64) ErrorRates {
	truthSpeedup := baseline.TrueSpeedupOver(treatment)
	truth := VerdictFor(truthSpeedup, equivBand)
	type trial struct {
		seedA, seedB uint64
		verdict      Verdict
		relErr       float64
	}
	ts := make([]trial, max(trials, 0))
	rng := stats.NewRNG(seed)
	for t := range ts {
		ts[t].seedA = rng.Uint64()
		ts[t].seedB = rng.Uint64()
	}
	stats.ParallelFor(len(ts), func(t int) {
		tr := &ts[t]
		s := getTrialSamples(invocations, iterations)
		baseline.fill(s.baseline, tr.seedA)
		treatment.fill(s.treatment, tr.seedB)
		cmp := m.Compare(s.baseline, s.treatment)
		trialPool.Put(s)
		tr.verdict, tr.relErr = cmp.Verdict, RelativeError(cmp.Speedup, truthSpeedup)
	})
	out := ErrorRates{Methodology: m.Name(), Trials: trials}
	sumRelErr := 0.0
	for _, tr := range ts {
		if Misleading(tr.verdict, truth) {
			out.Misleading++
		}
		if Missed(tr.verdict, truth) {
			out.Missed++
		}
		sumRelErr += tr.relErr
	}
	out.MeanRelErr = sumRelErr / float64(trials)
	return out
}
