// Package methodology implements the paper's primary contribution: the
// rigorous benchmarking and performance-analysis methodology for Python
// workloads, together with the naive methodologies it is evaluated against.
//
// A Methodology consumes two-level (invocation × iteration) measurement
// matrices for a baseline and a treatment configuration and produces a
// speedup estimate plus a verdict. The rigorous methodology detects and
// excludes warmup via changepoint analysis, treats the invocation as the
// unit of replication, and quotes a hierarchical-bootstrap confidence
// interval; the naive ones reproduce the shortcuts practitioners actually
// take (single runs, best-of-N, bare means), so their misleading-conclusion
// rates can be quantified.
package methodology

import (
	"math"
	"sync"

	"repro/internal/stats"
)

// Verdict is the conclusion of a pairwise performance comparison.
type Verdict int

// Verdict values. The comparison is "treatment vs baseline": speedup > 1
// means the treatment is faster.
const (
	// Indistinguishable: no significant difference can be claimed.
	Indistinguishable Verdict = iota
	// TreatmentFaster: the treatment configuration wins.
	TreatmentFaster
	// TreatmentSlower: the treatment configuration loses.
	TreatmentSlower
)

func (v Verdict) String() string {
	switch v {
	case TreatmentFaster:
		return "faster"
	case TreatmentSlower:
		return "slower"
	default:
		return "indistinguishable"
	}
}

// Comparison is the result of applying a methodology to one benchmark pair.
type Comparison struct {
	Methodology string
	// Speedup is baselineTime / treatmentTime (>1 = treatment faster).
	Speedup float64
	// CI is the speedup confidence interval; the zero value (Confidence 0)
	// means the methodology does not produce one.
	CI      stats.Interval
	Verdict Verdict
	// WarmupDropped reports how many leading iterations per invocation the
	// methodology excluded (rigorous only).
	WarmupDropped int
}

// Methodology compares a baseline and a treatment experiment.
// EvaluateMethodology runs trials through stats.ParallelFor, so Compare
// may be called concurrently and must not share mutable state between
// calls; none of the six here keeps any. EvaluateMethodology also reuses
// a trial's samples for later trials, so Compare must not keep baseline,
// treatment or any of their rows after it returns; none of the six does,
// and a Comparison holds no slice.
type Methodology interface {
	Name() string
	Compare(baseline, treatment stats.HierarchicalSample) Comparison
}

// ---- Naive methodologies ----

// SingleRun reproduces "I ran it once with each": the first iteration of
// the first invocation decides.
type SingleRun struct{}

// Name implements Methodology.
func (SingleRun) Name() string { return "single-run" }

// Compare implements Methodology.
func (SingleRun) Compare(baseline, treatment stats.HierarchicalSample) Comparison {
	a := baseline.Times[0][0]
	b := treatment.Times[0][0]
	sp := a / b
	return Comparison{Methodology: "single-run", Speedup: sp, Verdict: signVerdict(sp, 0)}
}

// BestOfN reproduces "report the best time": the minimum over every
// iteration of every invocation, a methodology common in microbenchmark
// folklore (and the default of several harnesses).
type BestOfN struct{}

// Name implements Methodology.
func (BestOfN) Name() string { return "best-of-n" }

// Compare implements Methodology.
func (BestOfN) Compare(baseline, treatment stats.HierarchicalSample) Comparison {
	a := flatMin(baseline)
	b := flatMin(treatment)
	sp := a / b
	return Comparison{Methodology: "best-of-n", Speedup: sp, Verdict: signVerdict(sp, 0)}
}

// MeanOnly pools every iteration of every invocation into one flat mean and
// compares the two means with no significance assessment.
type MeanOnly struct{}

// Name implements Methodology.
func (MeanOnly) Name() string { return "mean-only" }

// Compare implements Methodology.
func (MeanOnly) Compare(baseline, treatment stats.HierarchicalSample) Comparison {
	a := flatMean(baseline)
	b := flatMean(treatment)
	sp := a / b
	return Comparison{Methodology: "mean-only", Speedup: sp, Verdict: signVerdict(sp, 0)}
}

// MeanThreshold is MeanOnly with the common "ignore differences below 1%"
// rule of thumb.
type MeanThreshold struct {
	// Threshold is the relative difference under which the comparison is
	// called a tie. Zero means 1%.
	Threshold float64
}

// Name implements Methodology.
func (m MeanThreshold) Name() string { return "mean-threshold" }

// Compare implements Methodology.
func (m MeanThreshold) Compare(baseline, treatment stats.HierarchicalSample) Comparison {
	th := m.Threshold
	if th == 0 {
		th = 0.01
	}
	a := flatMean(baseline)
	b := flatMean(treatment)
	sp := a / b
	return Comparison{Methodology: "mean-threshold", Speedup: sp, Verdict: signVerdict(sp, th)}
}

// FirstIterationMean averages only each invocation's first iteration —
// "start the program, time it, quit" — which conflates warmup with steady
// state for JIT VMs.
type FirstIterationMean struct{}

// Name implements Methodology.
func (FirstIterationMean) Name() string { return "first-iteration" }

// Compare implements Methodology.
func (FirstIterationMean) Compare(baseline, treatment stats.HierarchicalSample) Comparison {
	sp := firstMean(baseline) / firstMean(treatment)
	return Comparison{Methodology: "first-iteration", Speedup: sp, Verdict: signVerdict(sp, 0)}
}

// flatMin is stats.Min(h.Flatten()) read in place: the same comparisons
// in the same order, without the copy. The naive methodologies and
// Rigorous.Compare read the two-level sample in place like this.
func flatMin(h stats.HierarchicalSample) float64 {
	m, seen := math.NaN(), false
	for _, inv := range h.Times {
		for _, x := range inv {
			if !seen || x < m {
				m, seen = x, true
			}
		}
	}
	return m
}

// flatMean is stats.Mean(h.Flatten()) read in place: the same sum.
func flatMean(h stats.HierarchicalSample) float64 {
	s, n := 0.0, 0
	for _, inv := range h.Times {
		for _, x := range inv {
			s += x
		}
		n += len(inv)
	}
	if n == 0 {
		return math.NaN()
	}
	return s / float64(n)
}

// firstMean is stats.Mean of each non-empty invocation's first iteration,
// read in place.
func firstMean(h stats.HierarchicalSample) float64 {
	s, n := 0.0, 0
	for _, inv := range h.Times {
		if len(inv) > 0 {
			s += inv[0]
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return s / float64(n)
}

// meanOfMeans is stats.Mean(h.InvocationMeans()) read in place.
func meanOfMeans(h stats.HierarchicalSample) float64 {
	if len(h.Times) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, inv := range h.Times {
		s += stats.Mean(inv)
	}
	return s / float64(len(h.Times))
}

func signVerdict(speedup, tol float64) Verdict {
	switch {
	case speedup > 1+tol:
		return TreatmentFaster
	case speedup < 1-tol:
		return TreatmentSlower
	default:
		return Indistinguishable
	}
}

// ---- The rigorous methodology ----

// Rigorous is the paper's methodology:
//
//  1. per-invocation steady-state detection by changepoint analysis, with
//     pre-steady iterations excluded (falling back to a fixed warmup drop
//     when no steady segment exists);
//  2. the invocation as the unit of replication (two-level design);
//  3. a hierarchical-bootstrap confidence interval on the speedup ratio;
//  4. a verdict only when the CI excludes 1.
type Rigorous struct {
	// Resamples is the bootstrap resample count; 0 means the stats default.
	Resamples int
	// Seed drives the bootstrap; comparisons are deterministic per seed.
	Seed uint64
}

// Confidence is the level of every interval the methodology reports.
const Confidence = 0.95

// maxWarmupFrac caps the fraction of an invocation's iterations Rigorous
// drops as warmup.
const maxWarmupFrac = 0.5

// Name implements Methodology.
func (Rigorous) Name() string { return "rigorous" }

// Compare implements Methodology.
func (r Rigorous) Compare(baseline, treatment stats.HierarchicalSample) Comparison {
	rng := stats.NewRNG(r.Seed ^ 0xB00757A9)

	dropped, t := trimWarmup(baseline, treatment)
	ci := stats.BootstrapHierarchicalRatioCI(t.a, t.b, Confidence, r.Resamples, rng)
	sp := meanOfMeans(t.a) / meanOfMeans(t.b)
	t.release()
	verdict := Indistinguishable
	if !ci.Contains(1) {
		if sp > 1 {
			verdict = TreatmentFaster
		} else {
			verdict = TreatmentSlower
		}
	}
	return Comparison{
		Methodology:   "rigorous",
		Speedup:       sp,
		CI:            ci,
		Verdict:       verdict,
		WarmupDropped: dropped,
	}
}

// trimmed is one comparison's warm-up trim. It stays in trimPool between
// comparisons with the trimmed samples' row headers and its bound body,
// so a comparison allocates neither; the rows are the untrimmed samples'
// own.
type trimmed struct {
	a, b stats.HierarchicalSample
	// in is the untrimmed samples' rows while trimWarmup runs.
	in [2][][]float64
	// trimOne is t.trim, bound once when t is made: ParallelFor keeps its
	// body, so a closure made per comparison would be one allocation each.
	trimOne func(int)
}

var trimPool sync.Pool

// release clears t's headers, so that the pool keeps no caller's sample
// alive, and puts t back in trimPool. t must not be read after.
func (t *trimmed) release() {
	clear(t.a.Times)
	clear(t.b.Times)
	trimPool.Put(t)
}

// trimWarmup detects the steady segment of every invocation of a and b,
// the invocations of both through one stats.ParallelFor, and returns the
// trimmed samples along with the most iterations dropped from any one
// invocation. The caller releases the trimmed samples once it has read
// them.
func trimWarmup(a, b stats.HierarchicalSample) (int, *trimmed) {
	t, _ := trimPool.Get().(*trimmed)
	if t == nil {
		t = new(trimmed)
		t.trimOne = t.trim
	}
	t.in = [2][][]float64{a.Times, b.Times}
	t.a.Times = resize(t.a.Times, len(a.Times))
	t.b.Times = resize(t.b.Times, len(b.Times))
	stats.ParallelFor(len(a.Times)+len(b.Times), t.trimOne)
	t.in = [2][][]float64{}
	dropped := 0
	for i, inv := range a.Times {
		dropped = max(dropped, len(inv)-len(t.a.Times[i]))
	}
	for i, inv := range b.Times {
		dropped = max(dropped, len(inv)-len(t.b.Times[i]))
	}
	return dropped, t
}

// trim cuts the warm-up of invocation i of the untrimmed samples, counted
// through a's invocations, then b's.
func (t *trimmed) trim(i int) {
	in, out := t.in[0], t.a.Times
	if i >= len(out) {
		in, out, i = t.in[1], t.b.Times, i-len(out)
	}
	inv := in[i]
	res := stats.ClassifySteadyState(inv, 0, 0, 0)
	start := 0
	switch res.Class {
	case stats.ClassWarmup, stats.ClassSlowdown:
		start = res.SteadyStart
	case stats.ClassNoSteadyState:
		// No steady segment: keep the tail half, the best available
		// approximation (and flag via dropped count).
		start = len(inv) / 2
	}
	if limit := int(maxWarmupFrac * float64(len(inv))); start > limit {
		start = limit
	}
	out[i] = inv[start:]
}

// resize returns rows with length n, reallocated if its capacity is short.
func resize(rows [][]float64, n int) [][]float64 {
	if cap(rows) < n {
		return make([][]float64, n)
	}
	return rows[:n]
}

// All returns every methodology, naive ones first, for the comparison
// experiments.
func All(seed uint64) []Methodology {
	return []Methodology{
		SingleRun{},
		FirstIterationMean{},
		BestOfN{},
		MeanOnly{},
		MeanThreshold{},
		Rigorous{Seed: seed},
	}
}

// TrueSpeedup computes the ground-truth speedup from noise-free steady-state
// base times (the simulator's privileged knowledge): the ratio of the means
// of the last halves of the per-iteration base series.
func TrueSpeedup(baseA, baseB []float64) float64 {
	tail := func(xs []float64) float64 {
		return stats.Mean(xs[len(xs)/2:])
	}
	return tail(baseA) / tail(baseB)
}

// VerdictFor converts a true speedup and an equivalence band into the
// ground-truth verdict: effects within ±band count as ties.
func VerdictFor(trueSpeedup, band float64) Verdict {
	switch {
	case trueSpeedup > 1+band:
		return TreatmentFaster
	case trueSpeedup < 1-band:
		return TreatmentSlower
	default:
		return Indistinguishable
	}
}

// Misleading reports whether a methodology's verdict misleads relative to
// the truth: claiming the wrong direction, or claiming a difference where
// the truth is a tie. (Failing to detect a real difference is counted
// separately as a miss — conservative, not misleading.)
func Misleading(got, truth Verdict) bool {
	if got == Indistinguishable {
		return false
	}
	return got != truth
}

// Missed reports whether a real difference was not detected.
func Missed(got, truth Verdict) bool {
	return got == Indistinguishable && truth != Indistinguishable
}

// RelativeError returns |estimated/true - 1|, the speedup estimation error.
func RelativeError(estimated, truth float64) float64 {
	if truth == 0 {
		return math.NaN()
	}
	return math.Abs(estimated/truth - 1)
}
