package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestMeanVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almostEq(m, 5, 1e-12) {
		t.Fatalf("mean %v", m)
	}
	// Sample variance with n-1: sum sq dev = 32, /7.
	if v := Variance(xs); !almostEq(v, 32.0/7, 1e-12) {
		t.Fatalf("variance %v", v)
	}
	if s := StdDev(xs); !almostEq(s, math.Sqrt(32.0/7), 1e-12) {
		t.Fatalf("std %v", s)
	}
}

func TestEmptyAndSingleInputs(t *testing.T) {
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Variance(nil)) {
		t.Fatal("empty inputs must be NaN")
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Fatal("variance of one sample must be NaN")
	}
	if Mean([]float64{3}) != 3 {
		t.Fatal("mean of singleton")
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("quantile of empty")
	}
	if !math.IsNaN(Quantile([]float64{1, 2}, 1.5)) {
		t.Fatal("quantile out of range")
	}
}

func TestQuantileType7(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {0.75, 3.25},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 4, 16}); !almostEq(g, 4, 1e-12) {
		t.Fatalf("geomean %v", g)
	}
	if g := GeoMean([]float64{2, 8}); !almostEq(g, 4, 1e-12) {
		t.Fatalf("geomean %v", g)
	}
	if !math.IsNaN(GeoMean([]float64{1, -1})) {
		t.Fatal("geomean of negatives must be NaN")
	}
	if !math.IsNaN(GeoMean(nil)) {
		t.Fatal("geomean of empty must be NaN")
	}
}

func TestMADAndMinMax(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 100}
	if m := MAD(xs); !almostEq(m, 1, 1e-12) {
		t.Fatalf("MAD %v", m) // median 3; |dev| = 2,1,0,1,97; median 1
	}
	if Min(xs) != 1 || Max(xs) != 100 {
		t.Fatal("min/max")
	}
}

// Property: mean is translation-equivariant and variance is
// translation-invariant.
func TestMeanVarianceTranslationProperty(t *testing.T) {
	f := func(raw []float64, shiftRaw float64) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			// Keep values bounded to avoid float blowups from quick's
			// extreme inputs.
			xs[i] = math.Mod(v, 1e6)
			if math.IsNaN(xs[i]) {
				xs[i] = 0
			}
		}
		shift := math.Mod(shiftRaw, 1e6)
		if math.IsNaN(shift) {
			shift = 0
		}
		shifted := make([]float64, len(xs))
		for i := range xs {
			shifted[i] = xs[i] + shift
		}
		return almostEq(Mean(shifted), Mean(xs)+shift, 1e-6) &&
			almostEq(Variance(shifted), Variance(xs), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			xs[i] = math.Mod(v, 1e9)
		}
		a := math.Abs(math.Mod(q1, 1))
		b := math.Abs(math.Mod(q2, 1))
		if a > b {
			a, b = b, a
		}
		qa, qb := Quantile(xs, a), Quantile(xs, b)
		return qa <= qb && qa >= Min(xs) && qb <= Max(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: GeoMean(xs) <= Mean(xs) for positive values (AM-GM).
func TestAMGMProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = 0.1 + math.Abs(math.Mod(v, 100))
		}
		return GeoMean(xs) <= Mean(xs)*(1+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
