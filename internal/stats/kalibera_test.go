package stats

import (
	"math"
	"testing"
)

// synthTwoLevel builds data with known variance components:
// x[i][j] = mu + B_i + W_ij, B ~ N(0, sigmaB²), W ~ N(0, sigmaW²).
func synthTwoLevel(rng *RNG, n, m int, mu, sigmaB, sigmaW float64) HierarchicalSample {
	times := make([][]float64, n)
	for i := range times {
		b := sigmaB * rng.NormFloat64()
		times[i] = make([]float64, m)
		for j := range times[i] {
			times[i][j] = mu + b + sigmaW*rng.NormFloat64()
		}
	}
	return HierarchicalSample{Times: times}
}

func TestDecomposeVarianceRecoversComponents(t *testing.T) {
	rng := NewRNG(9)
	const (
		n, m           = 200, 30
		sigmaB, sigmaW = 0.5, 2.0
	)
	h := synthTwoLevel(rng, n, m, 100, sigmaB, sigmaW)
	vd := DecomposeVariance(h)
	if !almostEq(vd.GrandMean, 100, 0.01) {
		t.Fatalf("grand mean %v", vd.GrandMean)
	}
	if math.Abs(vd.WithinVar-sigmaW*sigmaW) > 0.5 {
		t.Fatalf("within var %v, want ~%v", vd.WithinVar, sigmaW*sigmaW)
	}
	if math.Abs(vd.BetweenVar-sigmaB*sigmaB) > 0.12 {
		t.Fatalf("between var %v, want ~%v", vd.BetweenVar, sigmaB*sigmaB)
	}
}

func TestDecomposeVarianceIdentity(t *testing.T) {
	// S2² should estimate BetweenVar + WithinVar/m; verify the computed
	// fields satisfy the defining identity BetweenVar = S2² − S1²/m when
	// not clamped.
	rng := NewRNG(10)
	h := synthTwoLevel(rng, 50, 10, 10, 1.0, 1.0)
	vd := DecomposeVariance(h)
	want := vd.S2Sq - vd.S1Sq/float64(vd.Iterations)
	if want > 0 && !almostEq(vd.BetweenVar, want, 1e-12) {
		t.Fatalf("identity broken: %v vs %v", vd.BetweenVar, want)
	}
}

func TestDecomposeVarianceClampsNegative(t *testing.T) {
	// With zero true between-variance, the estimate is sometimes negative;
	// it must be clamped at 0.
	rng := NewRNG(11)
	sawZero := false
	for trial := 0; trial < 20; trial++ {
		h := synthTwoLevel(rng, 5, 50, 10, 0, 1.0)
		vd := DecomposeVariance(h)
		if vd.BetweenVar < 0 {
			t.Fatal("negative between-variance not clamped")
		}
		if vd.BetweenVar == 0 {
			sawZero = true
		}
	}
	if !sawZero {
		t.Log("note: clamp never triggered in 20 trials (unusual but possible)")
	}
}

func TestBetweenFraction(t *testing.T) {
	rng := NewRNG(12)
	// Dominant invocation effect.
	h1 := synthTwoLevel(rng, 100, 20, 10, 2.0, 0.1)
	if f := DecomposeVariance(h1).BetweenFraction(); f < 0.95 {
		t.Fatalf("between fraction %v, want ~1", f)
	}
	// Pure iteration noise.
	h2 := synthTwoLevel(rng, 100, 20, 10, 0, 2.0)
	if f := DecomposeVariance(h2).BetweenFraction(); f > 0.5 {
		t.Fatalf("between fraction %v, want small", f)
	}
}

func TestKaliberaCIWiderThanNaiveUnderInvocationEffect(t *testing.T) {
	rng := NewRNG(13)
	h := synthTwoLevel(rng, 10, 30, 100, 1.0, 0.5)
	kj := KaliberaMeanCI(h, 0.95)
	naive := NaiveFlattenedCI(h, 0.95)
	if kj.HalfWidth() <= naive.HalfWidth() {
		t.Fatalf("KJ CI (%v) must be wider than flattened CI (%v) when invocations dominate",
			kj.HalfWidth(), naive.HalfWidth())
	}
}

func TestKaliberaCICoverage(t *testing.T) {
	rng := NewRNG(14)
	const trials = 600
	kjCover, naiveCover := 0, 0
	for tr := 0; tr < trials; tr++ {
		h := synthTwoLevel(rng, 10, 20, 50, 1.0, 0.5)
		if KaliberaMeanCI(h, 0.95).Contains(50) {
			kjCover++
		}
		if NaiveFlattenedCI(h, 0.95).Contains(50) {
			naiveCover++
		}
	}
	kjRate := float64(kjCover) / trials
	naiveRate := float64(naiveCover) / trials
	if kjRate < 0.92 || kjRate > 0.98 {
		t.Fatalf("KJ coverage %v, want ~0.95", kjRate)
	}
	// The flattened interval must dramatically undercover — this is the
	// quantitative core of the "invocations are the unit of replication"
	// argument.
	if naiveRate > 0.75 {
		t.Fatalf("flattened coverage %v — expected severe undercoverage (<0.75)", naiveRate)
	}
}

func TestKaliberaMeanCISmallInputs(t *testing.T) {
	if !math.IsNaN(KaliberaMeanCI(HierarchicalSample{Times: [][]float64{{1, 2}}}, 0.95).Lo) {
		t.Fatal("n=1 invocation must be NaN")
	}
}

func TestDecomposeVarianceEmpty(t *testing.T) {
	vd := DecomposeVariance(HierarchicalSample{})
	if vd.Invocations != 0 || vd.BetweenVar != 0 {
		t.Fatal("empty decomposition should be zero")
	}
}
