package stats

import (
	"math"
	"sort"
)

// steadyStackLen is the longest series that PELT, robustNoiseVariance and
// ClassifySteadyState analyse in scratch on their own stacks; a longer
// series takes its scratch from the heap. The experiments classify at
// most 60 iterations per invocation.
const steadyStackLen = 64

// workspace returns the first n elements of stack, or a fresh heap slice
// when stack is shorter than n.
func workspace[T any](stack []T, n int) []T {
	if n <= len(stack) {
		return stack[:n]
	}
	return make([]T, n)
}

// PELT detects changes in the mean of a series using the Pruned Exact
// Linear Time algorithm with a Gaussian (squared-error) segment cost. It
// returns the sorted indices at which new segments begin (excluding 0), or
// nil if there are none; only a non-empty result allocates.
// penalty <= 0 selects the default 3·ln(n)·σ̂², with σ̂² estimated robustly
// from first differences so slow drifts don't inflate it.
func PELT(xs []float64, penalty float64) []int {
	n := len(xs)
	if n < 4 {
		return nil
	}
	if penalty <= 0 {
		sigma2 := robustNoiseVariance(xs)
		if sigma2 <= 0 {
			sigma2 = 1e-12
		}
		penalty = 3 * math.Log(float64(n)) * sigma2
	}

	// The prefix sums, the optimal costs f and the back-pointers, with
	// room for every candidate, start zeroed as make would leave them.
	var fStack [3 * (steadyStackLen + 1)]float64
	var iStack [2 * (steadyStackLen + 1)]int
	fs, is := workspace(fStack[:], 3*(n+1)), workspace(iStack[:], 2*(n+1))
	cum, cum2, f := fs[:n+1], fs[n+1:2*(n+1)], fs[2*(n+1):]
	prev, candidates := is[:n+1], is[n+1:n+1]

	// Prefix sums for O(1) segment cost: cost(i,j] = SSE over xs[i:j].
	for i, x := range xs {
		cum[i+1] = cum[i] + x
		cum2[i+1] = cum2[i] + x*x
	}
	segCost := func(i, j int) float64 { // half-open (i, j]
		m := float64(j - i)
		s := cum[j] - cum[i]
		return (cum2[j] - cum2[i]) - s*s/m
	}

	const minSeg = 2
	f[0] = -penalty
	candidates = append(candidates, 0)
	for t := minSeg; t <= n; t++ {
		best := math.Inf(1)
		bestTau := 0
		for _, tau := range candidates {
			if t-tau < minSeg {
				continue
			}
			c := f[tau] + segCost(tau, t) + penalty
			if c < best {
				best = c
				bestTau = tau
			}
		}
		f[t] = best
		prev[t] = bestTau
		// PELT pruning: discard candidates that can never be optimal again.
		kept := candidates[:0]
		for _, tau := range candidates {
			if t-tau < minSeg || f[tau]+segCost(tau, t) <= f[t] {
				kept = append(kept, tau)
			}
		}
		candidates = append(kept, t-minSeg+1)
	}

	// Walk the back-pointers from n; each is below the last, so the
	// changepoints come out in descending order.
	k := 0
	for t := prev[n]; t != 0; t = prev[t] {
		k++
	}
	if k == 0 {
		return nil
	}
	cps := make([]int, k)
	for t := prev[n]; t != 0; t = prev[t] {
		k--
		cps[k] = t
	}
	return cps
}

// robustNoiseVariance estimates iteration noise variance from first
// differences via MAD, immune to level shifts.
func robustNoiseVariance(xs []float64) float64 {
	if len(xs) < 3 {
		return Variance(xs)
	}
	n := len(xs) - 1
	var stack [2 * steadyStackLen]float64
	buf := workspace(stack[:], 2*n)
	diffs := buf[:n]
	for i := 1; i < len(xs); i++ {
		diffs[i-1] = xs[i] - xs[i-1]
	}
	mad := medianAbsDev(diffs, buf[n:])
	sigma := mad / 0.6745 / math.Sqrt2
	return sigma * sigma
}

// SteadyStateClass classifies an iteration-time series, following the
// taxonomy of Barrett et al. ("Virtual Machine Warmup Blows Hot and Cold",
// OOPSLA'17).
type SteadyStateClass int

// Steady-state classes.
const (
	// ClassFlat: no changepoints; the series is steady from the start.
	ClassFlat SteadyStateClass = iota
	// ClassWarmup: the series reaches a final segment whose mean is lower
	// than the first segment's (the VM warmed up) and stays there.
	ClassWarmup
	// ClassSlowdown: the final steady segment is slower than the start.
	ClassSlowdown
	// ClassNoSteadyState: the last segment is too short to call steady.
	ClassNoSteadyState
)

func (c SteadyStateClass) String() string {
	switch c {
	case ClassFlat:
		return "flat"
	case ClassWarmup:
		return "warmup"
	case ClassSlowdown:
		return "slowdown"
	case ClassNoSteadyState:
		return "no steady state"
	}
	return "unknown"
}

// SteadyStateResult is the outcome of classifying one invocation's
// iteration series.
type SteadyStateResult struct {
	Class       SteadyStateClass
	ChangePts   []int
	SteadyStart int     // first iteration of the steady segment (0 if flat)
	SteadyMean  float64 // mean of the steady segment
	FirstMean   float64 // mean of the first segment
}

// Despike replaces isolated outliers with their local median, using a
// sliding window and Tukey fences computed within the window — the
// preprocessing Barrett et al. apply before changepoint analysis so that
// interference spikes are not mistaken for level shifts. Genuine level
// shifts survive because shifted points are the local majority in their
// windows.
func Despike(xs []float64, window int, k float64) []float64 {
	out := make([]float64, len(xs))
	despike(out, xs, window, k)
	return out
}

// defaultDespikeWindow is Despike's window when window <= 0.
const defaultDespikeWindow = 25

// despike writes Despike(xs, window, k) to out. It sorts each window in
// scratch on its stack, or on the heap for a window wider than the default.
func despike(out, xs []float64, window int, k float64) {
	n := len(xs)
	if window <= 0 {
		window = defaultDespikeWindow
	}
	if k <= 0 {
		k = 3
	}
	copy(out, xs)
	half := window / 2
	var stack [defaultDespikeWindow - 1]float64
	win := workspace(stack[:], 2*half)
	for i := 0; i < n; i++ {
		lo, hi := i-half, i+half+1
		if lo < 0 {
			lo = 0
		}
		if hi > n {
			hi = n
		}
		buf := win[:0]
		for j := lo; j < hi; j++ {
			if j != i {
				buf = append(buf, xs[j])
			}
		}
		if len(buf) == 0 {
			continue
		}
		sort.Float64s(buf)
		fLo, fHi := tukeyFences(buf, k)
		if xs[i] < fLo || xs[i] > fHi {
			out[i] = quantileSorted(buf, 0.5)
		}
	}
}

// tukeyFences returns the inlier range [Q1−k·IQR, Q3+k·IQR] of a sorted,
// non-empty sample: k = 1.5 marks standard outliers, k = 3 extreme ones.
func tukeyFences(sorted []float64, k float64) (lo, hi float64) {
	q1 := quantileSorted(sorted, 0.25)
	q3 := quantileSorted(sorted, 0.75)
	iqr := q3 - q1
	return q1 - k*iqr, q3 + k*iqr
}

// ClassifySteadyState runs changepoint detection and applies the
// classification rules: the final segment must cover at least minTailFrac
// of the series to count as steady (Barrett et al. use the last 500
// in-process iterations; a fraction adapts to shorter series). relTol is
// the relative mean difference below which segments are considered equal.
func ClassifySteadyState(xs []float64, penalty, minTailFrac, relTol float64) SteadyStateResult {
	if minTailFrac <= 0 {
		minTailFrac = 0.25
	}
	if relTol <= 0 {
		relTol = 0.02
	}
	raw := xs
	var stack [steadyStackLen]float64
	xs = workspace(stack[:], len(raw))
	despike(xs, raw, 0, 0)
	cps := PELT(xs, penalty)
	n := len(xs)
	if len(cps) == 0 {
		m := Mean(xs)
		res := SteadyStateResult{Class: ClassFlat, SteadyMean: m, FirstMean: m}
		// Despiking removes isolated transients — including one-or-two
		// iteration warmups, which are warmup by definition (the leading
		// iterations of a fresh process are systematically special, unlike
		// mid-run interference). Reinstate them from the raw series: count
		// leading raw iterations well above the steady level.
		if k := leadingTransient(raw, m, relTol); k > 0 {
			res.Class = ClassWarmup
			res.SteadyStart = k
			res.FirstMean = Mean(raw[:k])
		}
		return res
	}
	lastStart := cps[len(cps)-1]
	firstEnd := cps[0]
	firstMean := Mean(xs[:firstEnd])
	lastMean := Mean(xs[lastStart:])
	res := SteadyStateResult{
		ChangePts:   cps,
		SteadyStart: lastStart,
		SteadyMean:  lastMean,
		FirstMean:   firstMean,
	}
	if n-lastStart < int(minTailFrac*float64(n)) {
		res.Class = ClassNoSteadyState
		return res
	}
	switch {
	case lastMean < firstMean*(1-relTol):
		res.Class = ClassWarmup
	case lastMean > firstMean*(1+relTol):
		res.Class = ClassSlowdown
	default:
		res.Class = ClassFlat
		res.SteadyStart = 0
		if k := leadingTransient(raw, lastMean, relTol); k > 0 {
			res.Class = ClassWarmup
			res.SteadyStart = k
			res.FirstMean = Mean(raw[:k])
		}
	}
	return res
}

// leadingTransient counts how many leading iterations sit well above the
// steady level (at least 5x the equivalence tolerance, floored at 10%),
// capping at a quarter of the series so a generally-elevated first half is
// left to changepoint analysis instead.
func leadingTransient(xs []float64, steadyMean, relTol float64) int {
	if steadyMean <= 0 {
		return 0
	}
	threshold := steadyMean * (1 + math.Max(5*relTol, 0.10))
	limit := len(xs) / 4
	k := 0
	for k < limit && xs[k] > threshold {
		k++
	}
	return k
}
