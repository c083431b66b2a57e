package stats

import (
	"math"
	"testing"
)

func TestWelchTTestIdenticalSamples(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	res := WelchTTest(xs, xs)
	if !almostEq(res.T, 0, 1e-12) || res.P < 0.99 {
		t.Fatalf("identical samples: t=%v p=%v", res.T, res.P)
	}
}

func TestWelchTTestKnown(t *testing.T) {
	// Classic example with clearly separated means.
	a := []float64{27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1, 21.9, 22.6, 23.1, 19.6, 19.0, 21.7, 21.4}
	b := []float64{27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2, 21.9, 22.1, 22.9, 30.5, 25.2}
	res := WelchTTest(a, b)
	if res.T >= 0 {
		t.Fatalf("t=%v, want negative (a's mean smaller)", res.T)
	}
	if res.P > 0.05 {
		t.Fatalf("p=%v, want significant", res.P)
	}
	if res.DF < 20 || res.DF > 28 {
		t.Fatalf("Welch df=%v, want between 20 and 28", res.DF)
	}
}

func TestWelchTTestFalsePositiveRate(t *testing.T) {
	rng := NewRNG(21)
	const trials = 2000
	fp := 0
	for i := 0; i < trials; i++ {
		a := normalSample(rng, 12, 0, 1)
		b := normalSample(rng, 12, 0, 1)
		if WelchTTest(a, b).P < 0.05 {
			fp++
		}
	}
	rate := float64(fp) / trials
	if rate < 0.03 || rate > 0.07 {
		t.Fatalf("false positive rate %v, want ~0.05", rate)
	}
}

func TestWelchTTestPower(t *testing.T) {
	rng := NewRNG(22)
	const trials = 500
	detected := 0
	for i := 0; i < trials; i++ {
		a := normalSample(rng, 20, 0, 1)
		b := normalSample(rng, 20, 1.2, 1) // effect 1.2 sigma
		if WelchTTest(a, b).P < 0.05 {
			detected++
		}
	}
	if rate := float64(detected) / trials; rate < 0.90 {
		t.Fatalf("power %v, want > 0.90 for a 1.2-sigma effect at n=20", rate)
	}
}

func TestWelchTTestDegenerate(t *testing.T) {
	if !math.IsNaN(WelchTTest([]float64{1}, []float64{1, 2}).P) {
		t.Fatal("n<2 must be NaN")
	}
	res := WelchTTest([]float64{2, 2, 2}, []float64{2, 2, 2})
	if res.P != 1 {
		t.Fatalf("equal constant samples: p=%v, want 1", res.P)
	}
	res = WelchTTest([]float64{2, 2, 2}, []float64{3, 3, 3})
	if res.P != 0 {
		t.Fatalf("different constant samples: p=%v, want 0", res.P)
	}
}

func TestCohensD(t *testing.T) {
	rng := NewRNG(25)
	a := normalSample(rng, 2000, 0, 1)
	b := normalSample(rng, 2000, 0.8, 1)
	d := CohensD(a, b)
	if math.Abs(d+0.8) > 0.1 {
		t.Fatalf("d=%v, want ~-0.8", d)
	}
	if !math.IsNaN(CohensD([]float64{1}, a)) {
		t.Fatal("tiny sample must be NaN")
	}
	if !math.IsNaN(CohensD([]float64{1, 1}, []float64{1, 1})) {
		t.Fatal("zero pooled variance must be NaN")
	}
}
