package stats

import (
	"math"
	"testing"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(123), NewRNG(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must yield same stream")
		}
	}
	c := NewRNG(124)
	same := 0
	a = NewRNG(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("different seeds produced %d collisions", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGUniformMoments(t *testing.T) {
	r := NewRNG(8)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		f := r.Float64()
		sum += f
		sumsq += f * f
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean %v", mean)
	}
	if math.Abs(variance-1.0/12) > 0.005 {
		t.Fatalf("uniform variance %v, want ~0.0833", variance)
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(9)
	const n = 200000
	sum, sumsq, sumcube := 0.0, 0.0, 0.0
	for i := 0; i < n; i++ {
		z := r.NormFloat64()
		sum += z
		sumsq += z * z
		sumcube += z * z * z
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	skew := sumcube / n
	if math.Abs(mean) > 0.01 || math.Abs(variance-1) > 0.02 || math.Abs(skew) > 0.05 {
		t.Fatalf("normal moments: mean %v var %v skew %v", mean, variance, skew)
	}
}

func TestRNGLogNormalMean(t *testing.T) {
	r := NewRNG(10)
	const n = 200000
	sigma := 0.3
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.LogNormal(0, sigma)
	}
	want := math.Exp(sigma * sigma / 2)
	if got := sum / n; math.Abs(got-want) > 0.01 {
		t.Fatalf("lognormal mean %v, want %v", got, want)
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(11)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Exp(2.5)
		if v < 0 {
			t.Fatal("exponential must be non-negative")
		}
		sum += v
	}
	if got := sum / n; math.Abs(got-2.5) > 0.05 {
		t.Fatalf("exp mean %v, want 2.5", got)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(12)
	seen := map[int]bool{}
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) must panic")
		}
	}()
	r.Intn(0)
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(99)
	a := parent.Split(1)
	b := parent.Split(2)
	matches := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			matches++
		}
	}
	if matches > 0 {
		t.Fatalf("split streams collided %d times", matches)
	}
}

// TestReciprocalMatchesRemainder checks reciprocal.mod against % for every
// divisor in 2..2¹⁶ and for divisors sampled at every bit length up to
// 2⁶⁴ − 1, each on edge numerators (0, 1, values at m, 2m and the largest
// multiple of m, and around 2³², 2⁶³ and 2⁶⁴) and on random ones.
func TestReciprocalMatchesRemainder(t *testing.T) {
	gen := NewRNG(35)
	check := func(m uint64, randoms int) {
		r := newReciprocal(m)
		top := math.MaxUint64 / m * m
		xs := []uint64{0, 1, m - 1, m, m + 1, 2*m - 1, top - 1, top,
			1<<32 - 1, 1 << 32, 1<<63 - 1, 1 << 63, math.MaxUint64 - 1, math.MaxUint64}
		for i := 0; i < randoms; i++ {
			xs = append(xs, gen.Uint64())
		}
		for _, x := range xs {
			if got, want := r.mod(x, m), x%m; got != want {
				t.Fatalf("%d mod %d = %d by reciprocal %+v, want %d", x, m, got, r, want)
			}
		}
	}
	for m := uint64(2); m <= 1<<16; m++ {
		check(m, 100)
	}
	for l := 17; l <= 64; l++ {
		lo := uint64(1) << (l - 1)
		check(lo, 200)
		check(lo+1, 200)
		check(lo|(lo-1), 200) // 2ˡ − 1
		for i := 0; i < 64; i++ {
			check(lo|gen.Uint64()&(lo-1), 200)
		}
	}
}

// TestDrawKeysMatchMix64 checks that the keyed mix the bootstrap's draw
// loop uses is SplitMix64's: drawKeys carries gamma and mix64's
// multipliers.
func TestDrawKeysMatchMix64(t *testing.T) {
	if drawKeys.gamma != gamma {
		t.Fatalf("drawKeys.gamma = %#x, want %#x", drawKeys.gamma, uint64(gamma))
	}
	gen := NewRNG(36)
	for i := 0; i < 1000; i++ {
		z := gen.Uint64()
		if got, want := drawKeys.mix(z), mix64(z); got != want {
			t.Fatalf("drawKeys.mix(%#x) = %#x, mix64 %#x", z, got, want)
		}
	}
}
