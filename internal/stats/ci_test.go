package stats

import (
	"math"
	"testing"
)

func TestMeanCIKnown(t *testing.T) {
	// n=9, mean=10, s=3: CI = 10 ± t_{0.975,8} * 1 = 10 ± 2.306.
	xs := []float64{7, 7, 7, 10, 10, 10, 13, 13, 13}
	m := Mean(xs)
	if !almostEq(m, 10, 1e-12) {
		t.Fatal("mean setup")
	}
	ci := MeanCI(xs, 0.95)
	se := StdDev(xs) / 3
	want := StudentTQuantile(0.975, 8) * se
	if !almostEq(ci.HalfWidth(), want, 1e-9) {
		t.Fatalf("half-width %v, want %v", ci.HalfWidth(), want)
	}
	if !almostEq(ci.Center(), 10, 1e-9) {
		t.Fatalf("center %v", ci.Center())
	}
}

func TestMeanCIDegenerate(t *testing.T) {
	ci := MeanCI([]float64{1}, 0.95)
	if !math.IsNaN(ci.Lo) {
		t.Fatal("n<2 must be NaN")
	}
}

func TestIntervalHelpers(t *testing.T) {
	iv := Interval{Lo: 1, Hi: 3, Confidence: 0.95}
	if iv.HalfWidth() != 1 || iv.Center() != 2 {
		t.Fatal("geometry")
	}
	if !iv.Contains(1) || !iv.Contains(3) || iv.Contains(3.01) {
		t.Fatal("contains")
	}
	if !almostEq(iv.RelHalfWidth(), 0.5, 1e-12) {
		t.Fatal("rel half-width")
	}
	if !math.IsNaN((Interval{Lo: -1, Hi: 1}).RelHalfWidth()) {
		t.Fatal("rel half-width at zero center must be NaN")
	}
}

// Coverage experiment: the t-interval on normal data must cover the true
// mean at roughly its nominal rate.
func TestMeanCICoverage(t *testing.T) {
	rng := NewRNG(11)
	const (
		trials = 2000
		n      = 10
		mu     = 5.0
	)
	covered := 0
	for tr := 0; tr < trials; tr++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = mu + 2*rng.NormFloat64()
		}
		if MeanCI(xs, 0.95).Contains(mu) {
			covered++
		}
	}
	rate := float64(covered) / trials
	if rate < 0.93 || rate > 0.97 {
		t.Fatalf("coverage %v, want ~0.95", rate)
	}
}

func TestRequiredN(t *testing.T) {
	rng := NewRNG(5)
	pilot := make([]float64, 30)
	for i := range pilot {
		pilot[i] = 100 + 5*rng.NormFloat64()
	}
	// Target half-width 1 with s≈5: n ≈ (1.96*5)^2 ≈ 96.
	n := RequiredN(pilot, 0.95, 1)
	if n < 60 || n > 150 {
		t.Fatalf("RequiredN = %d, want ~96", n)
	}
	// Halving the target quadruples n.
	n2 := RequiredN(pilot, 0.95, 0.5)
	ratio := float64(n2) / float64(n)
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("n ratio %v, want ~4", ratio)
	}
	if RequiredN(pilot, 0.95, 0) != 0 {
		t.Fatal("zero target must return 0")
	}
	if RequiredN([]float64{1}, 0.95, 1) != 0 {
		t.Fatal("tiny pilot must return 0")
	}
}
