package methodology

import (
	"math"
	"testing"

	"repro/internal/noise"
	"repro/internal/stats"
)

// flatGen returns a generator with a constant base time.
func flatGen(base float64, p noise.Params) TrialGenerator {
	return TrialGenerator{Base: []float64{base}, Noise: p}
}

// warmupGen returns a generator with a JIT-like warmup shape.
func warmupGen(steady float64, p noise.Params) TrialGenerator {
	base := make([]float64, 30)
	for i := range base {
		switch {
		case i < 5:
			base[i] = steady * 3
		case i < 8:
			base[i] = steady * 1.5
		default:
			base[i] = steady
		}
	}
	return TrialGenerator{Base: base, Noise: p}
}

func TestVerdictStrings(t *testing.T) {
	if Indistinguishable.String() != "indistinguishable" ||
		TreatmentFaster.String() != "faster" ||
		TreatmentSlower.String() != "slower" {
		t.Fatal("verdict strings")
	}
}

func TestTrialGeneratorShapes(t *testing.T) {
	g := warmupGen(1, noise.None())
	hs := g.Sample(1, 3, 40)
	if len(hs.Times) != 3 || len(hs.Times[0]) != 40 {
		t.Fatal("sample shape")
	}
	// Iterations beyond the profile reuse the steady value.
	if hs.Times[0][39] != 1 {
		t.Fatalf("tail base %v", hs.Times[0][39])
	}
	if hs.Times[0][0] != 3 {
		t.Fatalf("head base %v", hs.Times[0][0])
	}
}

func TestScaled(t *testing.T) {
	g := flatGen(2, noise.None())
	s := g.Scaled(2)
	if s.Base[0] != 1 {
		t.Fatalf("scaled base %v", s.Base[0])
	}
	if got := g.TrueSpeedupOver(s); !(got > 1.99 && got < 2.01) {
		t.Fatalf("true speedup %v", got)
	}
}

func TestTrueSpeedupUsesSteadyTail(t *testing.T) {
	// Baseline flat at 1; treatment warms from 3 to 0.5: true steady
	// speedup is 2, even though the mean over the whole run is worse.
	baseline := flatGen(1, noise.None())
	treatment := warmupGen(0.5, noise.None())
	got := baseline.TrueSpeedupOver(treatment)
	if !(got > 1.9 && got < 2.1) {
		t.Fatalf("true speedup %v, want ~2", got)
	}
}

func TestNaiveMethodologiesDirection(t *testing.T) {
	p := noise.Quiet()
	fast := flatGen(1, p)
	slow := flatGen(2, p)
	for _, m := range []Methodology{SingleRun{}, BestOfN{}, MeanOnly{},
		MeanThreshold{}, FirstIterationMean{}} {
		hsSlow := slow.Sample(1, 5, 10)
		hsFast := fast.Sample(2, 5, 10)
		cmp := m.Compare(hsSlow, hsFast) // baseline slow, treatment fast
		if cmp.Verdict != TreatmentFaster {
			t.Errorf("%s: verdict %v on a 2x difference", m.Name(), cmp.Verdict)
		}
		if cmp.Speedup < 1.5 || cmp.Speedup > 2.5 {
			t.Errorf("%s: speedup %v, want ~2", m.Name(), cmp.Speedup)
		}
	}
}

func TestFirstIterationMeanConflatesWarmup(t *testing.T) {
	p := noise.Quiet()
	interp := flatGen(1, p)  // flat baseline at 1.0
	jit := warmupGen(0.5, p) // 2x faster steady, but head starts at 1.5
	hsI := interp.Sample(3, 8, 30)
	hsJ := jit.Sample(4, 8, 30)
	first := FirstIterationMean{}.Compare(hsI, hsJ)
	rig := Rigorous{Seed: 5}.Compare(hsI, hsJ)
	// First-iteration methodology sees only the 1.5x-slower warmup head and
	// calls the JIT slower; the rigorous one sees the steady 2x win.
	if first.Verdict != TreatmentSlower {
		t.Fatalf("first-iteration verdict %v, want slower (speedup %v)",
			first.Verdict, first.Speedup)
	}
	if rig.Verdict != TreatmentFaster || rig.Speedup < 1.6 {
		t.Fatalf("rigorous verdict %v speedup %v, want faster ~2x", rig.Verdict, rig.Speedup)
	}
}

func TestRigorousIndistinguishableOnEqualConfigs(t *testing.T) {
	p := noise.Default()
	g := flatGen(1, p)
	wrong := 0
	const trials = 50
	rng := stats.NewRNG(77)
	for i := 0; i < trials; i++ {
		hsA := g.Sample(rng.Uint64(), 10, 20)
		hsB := g.Sample(rng.Uint64(), 10, 20)
		cmp := Rigorous{Seed: uint64(i)}.Compare(hsA, hsB)
		if cmp.Verdict != Indistinguishable {
			wrong++
		}
	}
	// Should be near the nominal 5% false-positive rate; allow slack for
	// the small-sample bootstrap.
	if wrong > 10 {
		t.Fatalf("rigorous false positives %d/%d", wrong, trials)
	}
}

func TestRigorousDetectsLargeEffect(t *testing.T) {
	p := noise.Default()
	baseline := flatGen(1, p)
	treatment := flatGen(1.0/1.3, p) // 30% faster
	missed := 0
	const trials = 30
	rng := stats.NewRNG(78)
	for i := 0; i < trials; i++ {
		hsA := baseline.Sample(rng.Uint64(), 10, 20)
		hsB := treatment.Sample(rng.Uint64(), 10, 20)
		cmp := Rigorous{Seed: uint64(i)}.Compare(hsA, hsB)
		if cmp.Verdict != TreatmentFaster {
			missed++
		}
	}
	if missed > 2 {
		t.Fatalf("rigorous missed a 30%% effect %d/%d times", missed, trials)
	}
}

func TestRigorousCIandWarmupFields(t *testing.T) {
	p := noise.Quiet()
	hsA := flatGen(1, p).Sample(1, 6, 30)
	hsB := warmupGen(0.5, p).Sample(2, 6, 30)
	cmp := Rigorous{Seed: 3}.Compare(hsA, hsB)
	if cmp.CI.Confidence != 0.95 {
		t.Fatalf("confidence %v", cmp.CI.Confidence)
	}
	if !(cmp.CI.Lo <= cmp.Speedup && cmp.Speedup <= cmp.CI.Hi) {
		t.Fatalf("speedup %v outside its own CI %+v", cmp.Speedup, cmp.CI)
	}
	if cmp.WarmupDropped < 5 {
		t.Fatalf("warmup dropped %d, want >= 5 (profile warms for 8)", cmp.WarmupDropped)
	}
}

func TestMisleadingAndMissed(t *testing.T) {
	cases := []struct {
		got, truth Verdict
		misleading bool
		missed     bool
	}{
		{TreatmentFaster, TreatmentFaster, false, false},
		{TreatmentFaster, TreatmentSlower, true, false},
		{TreatmentFaster, Indistinguishable, true, false},
		{Indistinguishable, TreatmentFaster, false, true},
		{Indistinguishable, Indistinguishable, false, false},
		{TreatmentSlower, TreatmentFaster, true, false},
	}
	for _, c := range cases {
		if Misleading(c.got, c.truth) != c.misleading {
			t.Errorf("Misleading(%v, %v) wrong", c.got, c.truth)
		}
		if Missed(c.got, c.truth) != c.missed {
			t.Errorf("Missed(%v, %v) wrong", c.got, c.truth)
		}
	}
}

func TestVerdictFor(t *testing.T) {
	if VerdictFor(1.005, 0.01) != Indistinguishable {
		t.Fatal("within band must be a tie")
	}
	if VerdictFor(1.05, 0.01) != TreatmentFaster {
		t.Fatal("above band must be faster")
	}
	if VerdictFor(0.9, 0.01) != TreatmentSlower {
		t.Fatal("below band must be slower")
	}
}

func TestEvaluateMethodologyRigorousBeatsNaive(t *testing.T) {
	p := noise.Default()
	baseline := flatGen(1, p)
	treatment := flatGen(1, p) // true tie
	const trials = 60
	naive := EvaluateMethodology(SingleRun{}, baseline, treatment, 8, 15, trials, 0.01, 5)
	rig := EvaluateMethodology(Rigorous{Seed: 1}, baseline, treatment, 8, 15, trials, 0.01, 5)
	if naive.MisleadingRate() < 0.5 {
		t.Fatalf("single-run misleading rate %v on a tie — should be high", naive.MisleadingRate())
	}
	if rig.MisleadingRate() > 0.25 {
		t.Fatalf("rigorous misleading rate %v on a tie — should be low", rig.MisleadingRate())
	}
	if rig.MeanRelErr > naive.MeanRelErr {
		t.Fatalf("rigorous rel err %v should not exceed single-run %v",
			rig.MeanRelErr, naive.MeanRelErr)
	}
}

func TestAllReturnsEveryMethodology(t *testing.T) {
	ms := All(1)
	if len(ms) != 6 {
		t.Fatalf("got %d methodologies", len(ms))
	}
	names := map[string]bool{}
	for _, m := range ms {
		names[m.Name()] = true
	}
	for _, want := range []string{"single-run", "first-iteration", "best-of-n",
		"mean-only", "mean-threshold", "rigorous"} {
		if !names[want] {
			t.Errorf("methodology %s missing", want)
		}
	}
}

// naiveReference is a naive methodology's Compare as it was before the
// methodologies read the sample in place: stats.Min and stats.Mean of
// copies (Flatten, and a slice of each invocation's first iteration). It
// is the reference the in-place forms must match bit for bit.
func naiveReference(m Methodology, a, b stats.HierarchicalSample) Comparison {
	first := func(h stats.HierarchicalSample) float64 {
		xs := make([]float64, 0, len(h.Times))
		for _, inv := range h.Times {
			if len(inv) > 0 {
				xs = append(xs, inv[0])
			}
		}
		return stats.Mean(xs)
	}
	var sp, tol float64
	switch m := m.(type) {
	case BestOfN:
		sp = stats.Min(a.Flatten()) / stats.Min(b.Flatten())
	case MeanOnly:
		sp = stats.Mean(a.Flatten()) / stats.Mean(b.Flatten())
	case MeanThreshold:
		sp, tol = stats.Mean(a.Flatten())/stats.Mean(b.Flatten()), m.Threshold
		if tol == 0 {
			tol = 0.01
		}
	case FirstIterationMean:
		sp = first(a) / first(b)
	}
	return Comparison{Methodology: m.Name(), Speedup: sp, Verdict: signVerdict(sp, tol)}
}

// raggedSample has 0–5 invocations of 0–5 iterations each, with ties and,
// in a quarter of the samples, a NaN as the first value.
func raggedSample(rng *stats.RNG) stats.HierarchicalSample {
	times := make([][]float64, rng.Intn(6))
	var first *float64
	for i := range times {
		times[i] = make([]float64, rng.Intn(6))
		for j := range times[i] {
			times[i][j] = rng.LogNormal(0, 0.3)
			if rng.Intn(4) == 0 {
				times[i][j] = math.Round(2*times[i][j]) / 2
			}
			if first == nil {
				first = &times[i][j]
			}
		}
	}
	if first != nil && rng.Intn(4) == 0 {
		*first = math.NaN()
	}
	return stats.HierarchicalSample{Times: times}
}

func sameFloat(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

// TestInPlaceReadsBitIdentical checks the naive methodologies and the
// rigorous point estimate against their copying references on ragged
// samples with empty invocations and NaN first values.
func TestInPlaceReadsBitIdentical(t *testing.T) {
	rng := stats.NewRNG(23)
	naive := []Methodology{BestOfN{}, MeanOnly{}, MeanThreshold{}, MeanThreshold{Threshold: 0.2}, FirstIterationMean{}}
	for trial := 0; trial < 2000; trial++ {
		a, b := raggedSample(rng), raggedSample(rng)
		if got, want := meanOfMeans(a), stats.Mean(a.InvocationMeans()); !sameFloat(got, want) {
			t.Fatalf("meanOfMeans(%v) = %v, stats.Mean of InvocationMeans %v", a.Times, got, want)
		}
		for _, m := range naive {
			got, want := m.Compare(a, b), naiveReference(m, a, b)
			if got.Methodology != want.Methodology || !sameFloat(got.Speedup, want.Speedup) ||
				got.Verdict != want.Verdict || got.CI != want.CI || got.WarmupDropped != 0 {
				t.Fatalf("%s on %v vs %v: %+v, reference %+v", m.Name(), a.Times, b.Times, got, want)
			}
		}
	}
}

// TestNaiveCompareAllocs guards the in-place reads: no naive methodology
// allocates.
func TestNaiveCompareAllocs(t *testing.T) {
	p := noise.Default()
	a, b := flatGen(1, p).Sample(1, 6, 16), warmupGen(0.4, p).Sample(2, 6, 16)
	for _, m := range All(1) {
		if _, ok := m.(Rigorous); ok {
			continue
		}
		if got := testing.AllocsPerRun(100, func() { m.Compare(a, b) }); got != 0 {
			t.Errorf("%s: Compare makes %v allocations, want 0", m.Name(), got)
		}
	}
}
