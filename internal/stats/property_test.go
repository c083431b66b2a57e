package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// sanitize maps arbitrary quick-generated floats into a bounded, finite
// positive range suitable for timing-like data.
func sanitize(raw []float64) []float64 {
	out := make([]float64, 0, len(raw))
	for _, v := range raw {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 1
		}
		out = append(out, 0.5+math.Abs(math.Mod(v, 100)))
	}
	return out
}

// Property: the bootstrap mean CI always contains values between its own
// bounds and brackets the sample mean for non-degenerate samples.
func TestPropertyBootstrapBracketsSampleMean(t *testing.T) {
	rng := NewRNG(1001)
	f := func(raw []float64) bool {
		xs := sanitize(raw)
		if len(xs) < 8 {
			return true
		}
		ci := BootstrapMeanCI(xs, 0.99, 300, rng)
		return ci.Lo <= ci.Hi && ci.Contains(Mean(xs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the t-interval width increases with the confidence level.
func TestPropertyCIWidthMonotoneInConfidence(t *testing.T) {
	f := func(raw []float64) bool {
		xs := sanitize(raw)
		if len(xs) < 3 || Variance(xs) == 0 {
			return true
		}
		w90 := MeanCI(xs, 0.90).HalfWidth()
		w95 := MeanCI(xs, 0.95).HalfWidth()
		w99 := MeanCI(xs, 0.99).HalfWidth()
		return w90 <= w95 && w95 <= w99
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: variance decomposition components are non-negative and the
// between fraction stays in [0, 1].
func TestPropertyDecompositionBounds(t *testing.T) {
	rng := NewRNG(1002)
	f := func(nRaw, mRaw uint8, sigmaBRaw, sigmaWRaw float64) bool {
		n := 2 + int(nRaw%20)
		m := 2 + int(mRaw%20)
		sigmaB := math.Abs(math.Mod(sigmaBRaw, 2))
		sigmaW := math.Abs(math.Mod(sigmaWRaw, 2))
		h := synthTwoLevel(rng, n, m, 10, sigmaB, sigmaW)
		vd := DecomposeVariance(h)
		bf := vd.BetweenFraction()
		return vd.BetweenVar >= 0 && vd.WithinVar >= 0 && bf >= 0 && bf <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: Despike never changes the length and never introduces values
// outside the original range.
func TestPropertyDespikeBounded(t *testing.T) {
	f := func(raw []float64) bool {
		xs := sanitize(raw)
		if len(xs) == 0 {
			return true
		}
		lo, hi := Min(xs), Max(xs)
		out := Despike(xs, 0, 0)
		if len(out) != len(xs) {
			return false
		}
		for _, v := range out {
			if v < lo-1e-12 || v > hi+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: PELT changepoints are strictly increasing interior indices.
func TestPropertyPELTChangepointsValid(t *testing.T) {
	f := func(raw []float64) bool {
		xs := sanitize(raw)
		if len(xs) < 4 {
			return true
		}
		cps := PELT(xs, 0)
		prev := 0
		for _, cp := range cps {
			if cp <= prev || cp >= len(xs) {
				return false
			}
			prev = cp
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: Student-t quantiles approach normal quantiles as df grows.
func TestPropertyTQuantileConvergesToNormal(t *testing.T) {
	for _, p := range []float64{0.9, 0.95, 0.975, 0.995} {
		z := NormalQuantile(p)
		prev := math.Inf(1)
		for _, df := range []float64{2, 5, 10, 50, 500} {
			tq := StudentTQuantile(p, df)
			if tq < z-1e-9 {
				t.Fatalf("t quantile %v below normal %v at df %v", tq, z, df)
			}
			if tq > prev+1e-9 {
				t.Fatalf("t quantile not monotone in df at p=%v", p)
			}
			prev = tq
		}
		if math.Abs(prev-z) > 0.01 {
			t.Fatalf("t(df=500) quantile %v too far from normal %v", prev, z)
		}
	}
}
