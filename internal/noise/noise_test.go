package noise

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func TestNoNoiseIsIdentity(t *testing.T) {
	src := NewSource(None(), 1, 0)
	for i := 0; i < 10; i++ {
		if got := src.Apply(2.5); got != 2.5 {
			t.Fatalf("no-noise Apply(2.5) = %v", got)
		}
	}
}

func TestDeterministicPerSeedAndInvocation(t *testing.T) {
	p := Default()
	a := NewSource(p, 42, 3)
	b := NewSource(p, 42, 3)
	for i := 0; i < 50; i++ {
		if a.Apply(1) != b.Apply(1) {
			t.Fatal("same (seed, invocation) must replay identically")
		}
	}
	c := NewSource(p, 42, 4)
	d := NewSource(p, 43, 3)
	if c.invFactor == a.invFactor &&
		d.invFactor == a.invFactor {
		t.Fatal("different invocations/seeds should differ")
	}
}

func TestInvocationFactorDistribution(t *testing.T) {
	p := Default()
	var factors []float64
	for i := 0; i < 3000; i++ {
		factors = append(factors, NewSource(p, 99, i).invFactor)
	}
	m := stats.Mean(factors)
	if math.Abs(m-1) > 0.01 {
		t.Fatalf("invocation factor mean %v, want ~1", m)
	}
	// Log of a lognormal has std == sigma.
	logs := make([]float64, len(factors))
	for i, f := range factors {
		logs[i] = math.Log(f)
	}
	if s := stats.StdDev(logs); math.Abs(s-p.InvocationSigma) > 0.003 {
		t.Fatalf("log-factor std %v, want %v", s, p.InvocationSigma)
	}
}

func TestSpikesAreRareAndPositive(t *testing.T) {
	p := Params{SpikeProb: 0.05, SpikeScale: 0.5}
	src := NewSource(p, 7, 0)
	spikes := 0
	const n = 20000
	for i := 0; i < n; i++ {
		v := src.Apply(1)
		if v < 1 {
			t.Fatalf("spike-only noise must never run faster than base: %v", v)
		}
		if v > 1.001 {
			spikes++
		}
	}
	rate := float64(spikes) / n
	if rate < 0.03 || rate > 0.07 {
		t.Fatalf("spike rate %v, want ~0.05", rate)
	}
}

func TestDrift(t *testing.T) {
	p := Params{DriftPerIter: 0.001}
	src := NewSource(p, 1, 0)
	first := src.Apply(1)
	var last float64
	for i := 0; i < 99; i++ {
		last = src.Apply(1)
	}
	if !(last > first) {
		t.Fatalf("drift should slow later iterations: first %v last %v", first, last)
	}
	if math.Abs(last-1.099) > 1e-9 {
		t.Fatalf("drift magnitude %v, want 1.099", last)
	}
}

func TestTwoLevelStructureVisibleInVarianceDecomposition(t *testing.T) {
	// The whole point of the noise model: the invocation effect must show
	// up as a between-invocation variance component.
	p := Default()
	const inv, iter = 60, 40
	times := make([][]float64, inv)
	for i := range times {
		src := NewSource(p, 2024, i)
		row := make([]float64, iter)
		for j := range row {
			row[j] = src.Apply(1)
		}
		times[i] = row
	}
	vd := stats.DecomposeVariance(stats.HierarchicalSample{Times: times})
	if vd.BetweenVar <= 0 {
		t.Fatal("invocation effect not visible in decomposition")
	}
	// sigma_inv = 2%: between std should be in the right ballpark.
	betweenStd := math.Sqrt(vd.BetweenVar)
	if betweenStd < 0.01 || betweenStd > 0.04 {
		t.Fatalf("between std %v, want ~0.02", betweenStd)
	}
}

func TestPresets(t *testing.T) {
	if !(Quiet().InvocationSigma < Default().InvocationSigma &&
		Default().InvocationSigma < Noisy().InvocationSigma) {
		t.Fatal("preset ordering broken")
	}
	if None() != (Params{}) {
		t.Fatal("None must be the zero value")
	}
}

func TestApplyScalesWithBase(t *testing.T) {
	p := Default()
	a := NewSource(p, 5, 0)
	b := NewSource(p, 5, 0)
	for i := 0; i < 20; i++ {
		x := a.Apply(1.0)
		y := b.Apply(10.0)
		if math.Abs(y/x-10) > 1e-9 {
			t.Fatalf("noise must be multiplicative in base: %v vs %v", x, y)
		}
	}
}

// TestPerturbMatchesSource checks Perturb against NewSource and Apply,
// the loop it stands for, bit for bit: every preset, base profiles shorter
// and longer than the row, and empty rows.
func TestPerturbMatchesSource(t *testing.T) {
	drift := Noisy()
	drift.DriftPerIter = 0.01
	rng := stats.NewRNG(24)
	for _, p := range []Params{None(), Quiet(), Default(), Noisy(), drift} {
		for rep := 0; rep < 20; rep++ {
			seed, inv := rng.Uint64(), rng.Intn(50)
			base := make([]float64, 1+rng.Intn(12))
			for j := range base {
				base[j] = rng.LogNormal(0, 1)
			}
			got := make([]float64, rng.Intn(25))
			Perturb(got, p, seed, inv, base)
			src := NewSource(p, seed, inv)
			for j := range got {
				want := src.Apply(base[min(j, len(base)-1)])
				if math.Float64bits(got[j]) != math.Float64bits(want) {
					t.Fatalf("%+v, seed %d, invocation %d: time %d = %v, NewSource+Apply %v", p, seed, inv, j, got[j], want)
				}
			}
		}
	}
}

// TestPerturbAllocs guards the stack-held stream and the caller-owned
// row: Perturb allocates nothing.
func TestPerturbAllocs(t *testing.T) {
	base := []float64{3, 2, 1}
	row := make([]float64, 16)
	if got := testing.AllocsPerRun(100, func() { Perturb(row, Noisy(), 7, 3, base) }); got != 0 {
		t.Fatalf("Perturb makes %v allocations, want 0", got)
	}
}
