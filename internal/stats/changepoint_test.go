package stats

import (
	"math"
	"slices"
	"sort"
	"testing"
)

func stepSeries(rng *RNG, lens []int, levels []float64, sigma float64) []float64 {
	var out []float64
	for seg, n := range lens {
		for i := 0; i < n; i++ {
			out = append(out, levels[seg]+sigma*rng.NormFloat64())
		}
	}
	return out
}

func TestPELTSingleStep(t *testing.T) {
	rng := NewRNG(31)
	xs := stepSeries(rng, []int{30, 70}, []float64{2.0, 1.0}, 0.02)
	cps := PELT(xs, 0)
	if len(cps) != 1 {
		t.Fatalf("changepoints %v, want exactly one", cps)
	}
	if cps[0] < 27 || cps[0] > 33 {
		t.Fatalf("changepoint at %d, want ~30", cps[0])
	}
}

func TestPELTTwoSteps(t *testing.T) {
	rng := NewRNG(32)
	xs := stepSeries(rng, []int{40, 40, 40}, []float64{3, 2, 1}, 0.05)
	cps := PELT(xs, 0)
	if len(cps) != 2 {
		t.Fatalf("changepoints %v, want two", cps)
	}
	if cps[0] < 36 || cps[0] > 44 || cps[1] < 76 || cps[1] > 84 {
		t.Fatalf("changepoints %v, want ~40 and ~80", cps)
	}
}

func TestPELTFlatSeriesNoChangepoints(t *testing.T) {
	rng := NewRNG(33)
	falsePos := 0
	for trial := 0; trial < 50; trial++ {
		xs := stepSeries(rng, []int{100}, []float64{1}, 0.03)
		if len(PELT(xs, 0)) > 0 {
			falsePos++
		}
	}
	if falsePos > 5 {
		t.Fatalf("false positives on flat series: %d/50", falsePos)
	}
}

func TestPELTShortSeries(t *testing.T) {
	if cps := PELT([]float64{1, 2, 3}, 0); cps != nil {
		t.Fatalf("short series should return nil, got %v", cps)
	}
}

func TestPELTPenaltyMonotone(t *testing.T) {
	rng := NewRNG(34)
	xs := stepSeries(rng, []int{25, 25, 25, 25}, []float64{4, 3, 2, 1}, 0.05)
	low := len(PELT(xs, 0.01))
	high := len(PELT(xs, 1e6))
	if low < high {
		t.Fatalf("more penalty should give fewer changepoints: %d vs %d", low, high)
	}
	if high != 0 {
		t.Fatalf("huge penalty should suppress all changepoints, got %d", high)
	}
}

func TestClassifyWarmup(t *testing.T) {
	rng := NewRNG(35)
	// 20 slow iterations then 80 fast — classic JIT warmup.
	xs := stepSeries(rng, []int{20, 80}, []float64{3.0, 1.0}, 0.02)
	res := ClassifySteadyState(xs, 0, 0, 0)
	if res.Class != ClassWarmup {
		t.Fatalf("class %v, want warmup (cps %v)", res.Class, res.ChangePts)
	}
	if res.SteadyStart < 17 || res.SteadyStart > 23 {
		t.Fatalf("steady start %d, want ~20", res.SteadyStart)
	}
	if !almostEq(res.SteadyMean, 1.0, 0.05) {
		t.Fatalf("steady mean %v", res.SteadyMean)
	}
}

func TestClassifyFlat(t *testing.T) {
	rng := NewRNG(36)
	xs := stepSeries(rng, []int{100}, []float64{1}, 0.02)
	res := ClassifySteadyState(xs, 0, 0, 0)
	if res.Class != ClassFlat {
		t.Fatalf("class %v, want flat", res.Class)
	}
	if res.SteadyStart != 0 {
		t.Fatalf("flat series steady start %d", res.SteadyStart)
	}
}

func TestClassifySlowdown(t *testing.T) {
	rng := NewRNG(37)
	xs := stepSeries(rng, []int{30, 70}, []float64{1.0, 1.5}, 0.02)
	res := ClassifySteadyState(xs, 0, 0, 0)
	if res.Class != ClassSlowdown {
		t.Fatalf("class %v, want slowdown", res.Class)
	}
}

func TestClassifyNoSteadyState(t *testing.T) {
	rng := NewRNG(38)
	// A level shift arriving in the last 10% of the series: the tail is too
	// short to call steady.
	xs := stepSeries(rng, []int{92, 8}, []float64{1.0, 3.0}, 0.02)
	res := ClassifySteadyState(xs, 0, 0.25, 0)
	if res.Class != ClassNoSteadyState {
		t.Fatalf("class %v, want no steady state (cps %v)", res.Class, res.ChangePts)
	}
}

func TestClassifyEquivalentSegmentsAreFlat(t *testing.T) {
	rng := NewRNG(39)
	// A detectable but tiny (<2%) level change should classify as flat.
	xs := stepSeries(rng, []int{50, 50}, []float64{1.000, 1.004}, 0.0005)
	res := ClassifySteadyState(xs, 0, 0, 0.02)
	if res.Class != ClassFlat {
		t.Fatalf("class %v, want flat under the 2%% tolerance (cps %v)", res.Class, res.ChangePts)
	}
}

func TestRobustNoiseVarianceIgnoresLevelShifts(t *testing.T) {
	rng := NewRNG(40)
	flat := stepSeries(rng, []int{200}, []float64{1}, 0.01)
	stepped := stepSeries(rng, []int{100, 100}, []float64{1, 2}, 0.01)
	vFlat := robustNoiseVariance(flat)
	vStep := robustNoiseVariance(stepped)
	// The step inflates ordinary variance by ~0.25 but the robust estimate
	// should stay near 1e-4.
	if vStep > 3*vFlat {
		t.Fatalf("robust variance inflated by level shift: flat %v vs stepped %v", vFlat, vStep)
	}
}

func TestPELTWarmupPlusSpikes(t *testing.T) {
	rng := NewRNG(41)
	xs := stepSeries(rng, []int{15, 85}, []float64{2.0, 1.0}, 0.01)
	// Inject occasional spikes like real interference.
	for i := 20; i < len(xs); i += 17 {
		xs[i] *= 1.2
	}
	res := ClassifySteadyState(xs, 0, 0, 0)
	if res.Class != ClassWarmup {
		t.Fatalf("spikes broke warmup detection: %v (cps %v)", res.Class, res.ChangePts)
	}
}

func TestDespike(t *testing.T) {
	rng := NewRNG(42)
	xs := stepSeries(rng, []int{50, 50}, []float64{2, 1}, 0.01)
	dirty := make([]float64, len(xs))
	copy(dirty, xs)
	dirty[10] *= 1.5
	dirty[60] *= 1.5
	clean := Despike(dirty, 0, 0)
	if clean[10] > 2.2 || clean[60] > 1.2 {
		t.Fatalf("spikes survive despiking: %v %v", clean[10], clean[60])
	}
	// The genuine level shift must survive.
	if Mean(clean[:50]) < 1.8 || Mean(clean[50:]) > 1.2 {
		t.Fatal("despike destroyed the level shift")
	}
	// Inliers untouched.
	if clean[30] != dirty[30] {
		t.Fatal("despike modified an inlier")
	}
}

func TestTukeyFences(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8} // Q1=2.75, Q3=6.25, IQR=3.5
	lo, hi := tukeyFences(xs, 1.5)
	if !almostEq(lo, 2.75-5.25, 1e-9) || !almostEq(hi, 6.25+5.25, 1e-9) {
		t.Fatalf("fences [%v, %v]", lo, hi)
	}
	if lo, hi := tukeyFences([]float64{4}, 3); lo != 4 || hi != 4 {
		t.Fatalf("one-point fences [%v, %v], want [4, 4]", lo, hi)
	}
}

// despikeQuantileForm is Despike before it sorted each window once: the
// fences come from two copy-and-sort Quantile calls and the replacement
// from a third. It is the reference the sorted-window form must match bit
// for bit.
func despikeQuantileForm(xs []float64, window int, k float64) []float64 {
	n := len(xs)
	if window <= 0 {
		window = 25
	}
	if k <= 0 {
		k = 3
	}
	out := make([]float64, n)
	copy(out, xs)
	half := window / 2
	for i := 0; i < n; i++ {
		var buf []float64
		for j := max(0, i-half); j < min(n, i+half+1); j++ {
			if j != i {
				buf = append(buf, xs[j])
			}
		}
		q1, q3 := Quantile(buf, 0.25), Quantile(buf, 0.75)
		if xs[i] < q1-k*(q3-q1) || xs[i] > q3+k*(q3-q1) {
			out[i] = Median(buf)
		}
	}
	return out
}

func TestDespikeBitIdentical(t *testing.T) {
	rng := NewRNG(20260)
	var series [][]float64
	for n := 0; n <= 3; n++ {
		for rep := 0; rep < 4; rep++ {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(rng.Intn(3)) // ties are likely
			}
			series = append(series, xs)
		}
	}
	for rep := 0; rep < 40; rep++ {
		n := 4 + rng.Intn(60)
		shift := 1 + rng.Intn(n-1)
		xs := stepSeries(rng, []int{shift, n - shift}, []float64{2, 1}, 0.02)
		for i := range xs {
			switch rng.Intn(8) {
			case 0:
				xs[i] *= 1.5 // an interference spike
			case 1:
				xs[i] = math.Round(xs[i]) // a tie
			}
		}
		series = append(series, xs)
	}
	for _, xs := range series {
		for _, window := range []int{0, 1, 3, 8} {
			for _, k := range []float64{0, 1.5} {
				got, want := Despike(xs, window, k), despikeQuantileForm(xs, window, k)
				for i := range want {
					if !sameBits(got[i], want[i]) {
						t.Fatalf("Despike(%v, %d, %v)[%d] = %v, quantile form %v",
							xs, window, k, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestClassifyOneIterationWarmup(t *testing.T) {
	rng := NewRNG(43)
	// A single slow first iteration (fast JIT warmup): despiking smooths it
	// away, but it must still classify as warmup with steady start 1.
	xs := stepSeries(rng, []int{1, 59}, []float64{3.5, 1.0}, 0.01)
	res := ClassifySteadyState(xs, 0, 0, 0)
	if res.Class != ClassWarmup {
		t.Fatalf("class %v, want warmup for a leading transient", res.Class)
	}
	if res.SteadyStart != 1 {
		t.Fatalf("steady start %d, want 1", res.SteadyStart)
	}
}

func TestClassifyThreeIterationWarmup(t *testing.T) {
	rng := NewRNG(44)
	xs := stepSeries(rng, []int{3, 57}, []float64{2.0, 1.0}, 0.01)
	res := ClassifySteadyState(xs, 0, 0, 0)
	if res.Class != ClassWarmup {
		t.Fatalf("class %v, want warmup", res.Class)
	}
	if res.SteadyStart < 2 || res.SteadyStart > 4 {
		t.Fatalf("steady start %d, want ~3", res.SteadyStart)
	}
}

func TestLeadingTransientCap(t *testing.T) {
	// A series elevated for half its length is a level shift, not a leading
	// transient; the cap leaves it to changepoint analysis (warmup anyway).
	rng := NewRNG(45)
	xs := stepSeries(rng, []int{30, 30}, []float64{2.0, 1.0}, 0.01)
	res := ClassifySteadyState(xs, 0, 0, 0)
	if res.Class != ClassWarmup {
		t.Fatalf("class %v", res.Class)
	}
	if res.SteadyStart < 27 || res.SteadyStart > 33 {
		t.Fatalf("steady start %d, want ~30 from PELT", res.SteadyStart)
	}
}

// despikeReference, peltReference, noiseVarianceReference and
// classifyReference are Despike, PELT, robustNoiseVariance and
// ClassifySteadyState before they took their scratch from the stack: every
// array from make, and the two MAD medians from copy-and-sort Median
// calls. They are the references the stack forms must match bit for bit.
func despikeReference(xs []float64, window int, k float64) []float64 {
	n := len(xs)
	if window <= 0 {
		window = 25
	}
	if k <= 0 {
		k = 3
	}
	out := make([]float64, n)
	copy(out, xs)
	half := window / 2
	buf := make([]float64, 0, window)
	for i := 0; i < n; i++ {
		buf = buf[:0]
		for j := max(0, i-half); j < min(n, i+half+1); j++ {
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
	return out
}

func peltReference(xs []float64, penalty float64) []int {
	n := len(xs)
	if n < 4 {
		return nil
	}
	if penalty <= 0 {
		sigma2 := noiseVarianceReference(xs)
		if sigma2 <= 0 {
			sigma2 = 1e-12
		}
		penalty = 3 * math.Log(float64(n)) * sigma2
	}
	cum := make([]float64, n+1)
	cum2 := make([]float64, n+1)
	for i, x := range xs {
		cum[i+1] = cum[i] + x
		cum2[i+1] = cum2[i] + x*x
	}
	segCost := func(i, j int) float64 {
		m := float64(j - i)
		s := cum[j] - cum[i]
		return (cum2[j] - cum2[i]) - s*s/m
	}
	const minSeg = 2
	f := make([]float64, n+1)
	f[0] = -penalty
	prev := make([]int, n+1)
	candidates := []int{0}
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
		kept := candidates[:0]
		for _, tau := range candidates {
			if t-tau < minSeg || f[tau]+segCost(tau, t) <= f[t] {
				kept = append(kept, tau)
			}
		}
		candidates = append(kept, t-minSeg+1)
	}
	var cps []int
	for t := n; t > 0; t = prev[t] {
		if prev[t] != 0 {
			cps = append(cps, prev[t])
		}
		if prev[t] == 0 {
			break
		}
	}
	sort.Ints(cps)
	return cps
}

func noiseVarianceReference(xs []float64) float64 {
	if len(xs) < 3 {
		return Variance(xs)
	}
	diffs := make([]float64, len(xs)-1)
	for i := 1; i < len(xs); i++ {
		diffs[i-1] = xs[i] - xs[i-1]
	}
	m := Median(diffs)
	dev := make([]float64, len(diffs))
	for i, d := range diffs {
		dev[i] = math.Abs(d - m)
	}
	sigma := Median(dev) / 0.6745 / math.Sqrt2
	return sigma * sigma
}

func classifyReference(xs []float64, penalty, minTailFrac, relTol float64) SteadyStateResult {
	if minTailFrac <= 0 {
		minTailFrac = 0.25
	}
	if relTol <= 0 {
		relTol = 0.02
	}
	raw := xs
	xs = despikeReference(xs, 0, 0)
	cps := peltReference(xs, penalty)
	n := len(xs)
	if len(cps) == 0 {
		m := Mean(xs)
		res := SteadyStateResult{Class: ClassFlat, SteadyMean: m, FirstMean: m}
		if k := leadingTransient(raw, m, relTol); k > 0 {
			res.Class = ClassWarmup
			res.SteadyStart = k
			res.FirstMean = Mean(raw[:k])
		}
		return res
	}
	lastStart := cps[len(cps)-1]
	firstMean := Mean(xs[:cps[0]])
	lastMean := Mean(xs[lastStart:])
	res := SteadyStateResult{ChangePts: cps, SteadyStart: lastStart, SteadyMean: lastMean, FirstMean: firstMean}
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

// kernelSeries is a series of n points for the bit-identity tests: up to
// three level shifts under jitter, with interference spikes, ties and,
// in some series, ±Inf.
func kernelSeries(rng *RNG, n int) []float64 {
	xs := make([]float64, n)
	level := 1 + rng.Float64()
	infs := rng.Intn(4) == 0
	for i := range xs {
		if rng.Intn(max(n/3, 1)) == 0 {
			level = 0.5 + 2*rng.Float64() // a level shift
		}
		xs[i] = level * (1 + 0.02*rng.NormFloat64())
		switch u := rng.Intn(20); {
		case u == 0:
			xs[i] *= 1.5 + rng.Float64() // an interference spike
		case u <= 3:
			xs[i] = math.Round(4*xs[i]) / 4 // a tie
		case u == 4 && infs:
			xs[i] = math.Inf(1 - 2*rng.Intn(2))
		}
	}
	return xs
}

// TestSteadyStateKernelsBitIdentical checks Despike, PELT and
// ClassifySteadyState against their references on series of every length
// from 0 to 200, across the stack bound: changepoints and classes equal,
// every float the same bits. A NaN matches any NaN, as in
// TestPercentileIntervalMatchesSort.
func TestSteadyStateKernelsBitIdentical(t *testing.T) {
	rng := NewRNG(21)
	for n := 0; n <= 200; n++ {
		xs := kernelSeries(rng, n)
		// The default window sorts in stack scratch, a wider one on the heap.
		for _, window := range []int{0, 30} {
			got, want := Despike(xs, window, 1.5), despikeReference(xs, window, 1.5)
			for i := range want {
				if !sameQuantile(got[i], want[i]) {
					t.Fatalf("n=%d: Despike(window %d)[%d] = %v, reference %v (series %v)", n, window, i, got[i], want[i], xs)
				}
			}
		}
		for _, penalty := range []float64{0, 0.05} {
			if got, want := PELT(xs, penalty), peltReference(xs, penalty); !slices.Equal(got, want) || (got == nil) != (want == nil) {
				t.Fatalf("n=%d: PELT(penalty %v) = %v, reference %v (series %v)", n, penalty, got, want, xs)
			}
		}
		for _, p := range [][3]float64{{0, 0, 0}, {0.02, 0.4, 0.05}} {
			got, want := ClassifySteadyState(xs, p[0], p[1], p[2]), classifyReference(xs, p[0], p[1], p[2])
			if got.Class != want.Class || got.SteadyStart != want.SteadyStart ||
				!slices.Equal(got.ChangePts, want.ChangePts) || (got.ChangePts == nil) != (want.ChangePts == nil) ||
				!sameQuantile(got.SteadyMean, want.SteadyMean) || !sameQuantile(got.FirstMean, want.FirstMean) {
				t.Fatalf("n=%d: ClassifySteadyState%v = %+v, reference %+v (series %v)", n, p, got, want, xs)
			}
		}
	}
}

// TestClassifySteadyStateAllocs guards the stack scratch: classifying a
// 30-iteration invocation allocates nothing, or only its changepoints.
func TestClassifySteadyStateAllocs(t *testing.T) {
	flat := stepSeries(NewRNG(46), []int{30}, []float64{1}, 0.01)
	step := stepSeries(NewRNG(47), []int{10, 20}, []float64{3, 1}, 0.01)
	for _, c := range []struct {
		name   string
		xs     []float64
		cps    int
		allocs float64
	}{{"flat", flat, 0, 0}, {"one level shift", step, 1, 1}} {
		if got := len(ClassifySteadyState(c.xs, 0, 0, 0).ChangePts); got != c.cps {
			t.Fatalf("%s: %d changepoints, want %d", c.name, got, c.cps)
		}
		if got := testing.AllocsPerRun(100, func() { ClassifySteadyState(c.xs, 0, 0, 0) }); got > c.allocs {
			t.Errorf("%s: ClassifySteadyState makes %v allocations, want at most %v", c.name, got, c.allocs)
		}
	}
}
