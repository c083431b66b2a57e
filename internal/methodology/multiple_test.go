package methodology

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/noise"
	"repro/internal/stats"
)

func TestHolmAdjustKnown(t *testing.T) {
	// Classic example: p = [0.01, 0.04, 0.03, 0.005] at alpha 0.05.
	// Sorted: 0.005 (<= .05/4=.0125 ok), 0.01 (<= .05/3=.0167 ok),
	// 0.03 (<= .05/2=.025 FAIL) → stop; 0.04 fails too.
	p := []float64{0.01, 0.04, 0.03, 0.005}
	sig := HolmAdjust(p, 0.05)
	want := []bool{true, false, false, true}
	for i := range want {
		if sig[i] != want[i] {
			t.Fatalf("HolmAdjust = %v, want %v", sig, want)
		}
	}
}

func TestHolmAdjustAllTinyAllSignificant(t *testing.T) {
	p := []float64{1e-6, 1e-7, 1e-8}
	for i, s := range HolmAdjust(p, 0.05) {
		if !s {
			t.Fatalf("index %d should be significant", i)
		}
	}
}

func TestHolmAdjustStepDownStops(t *testing.T) {
	// The smallest p fails → nothing is significant, even a later p that
	// would pass its own threshold in isolation.
	p := []float64{0.9, 0.04}
	sig := HolmAdjust(p, 0.05)
	// Sorted: 0.04 vs 0.05/2 = 0.025 → fail → stop. 0.9 fails.
	if sig[0] || sig[1] {
		t.Fatalf("step-down should reject all: %v", sig)
	}
}

// TestHolmAdjustNaNPlacement checks that a NaN p-value is never
// significant, counts in the family size, and does not change the answer
// by where it sits: the same p-values in any order give the same
// verdicts, index for index.
func TestHolmAdjustNaNPlacement(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		p    []float64
		want []bool
	}{
		// 0.001 <= 0.05/3 and 0.002 <= 0.05/2: the NaN still counts in n.
		{[]float64{nan, 0.001, 0.002}, []bool{false, true, true}},
		{[]float64{0.001, nan, 0.002}, []bool{true, false, true}},
		{[]float64{0.001, 0.002, nan}, []bool{true, true, false}},
		// 0.02 <= 0.05/2 and 0.04 <= 0.05 in a family of two, but the NaN
		// makes it three, and 0.02 > 0.05/3.
		{[]float64{0.02, 0.04, nan}, []bool{false, false, false}},
		{[]float64{nan, nan}, []bool{false, false}},
	} {
		if got := HolmAdjust(c.p, 0.05); !reflect.DeepEqual(got, c.want) {
			t.Errorf("HolmAdjust(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	rng := stats.NewRNG(5)
	for trial := 0; trial < 500; trial++ {
		p := make([]float64, 1+rng.Intn(12))
		for i := range p {
			switch rng.Intn(4) {
			case 0:
				p[i] = nan
			case 1:
				p[i] = 0.001 * float64(1+rng.Intn(5)) // ties and small values
			default:
				p[i] = 0.05 * rng.Float64()
			}
		}
		want := HolmAdjust(p, 0.05)
		for i, pi := range p {
			if math.IsNaN(pi) && want[i] {
				t.Fatalf("HolmAdjust(%v): NaN at %d is significant", p, i)
			}
		}
		perm := make([]int, len(p))
		for i := range perm {
			perm[i] = i
		}
		for k := 0; k < 5; k++ {
			for i := len(perm) - 1; i > 0; i-- {
				j := rng.Intn(i + 1)
				perm[i], perm[j] = perm[j], perm[i]
			}
			q := make([]float64, len(p))
			for i, j := range perm {
				q[i] = p[j]
			}
			got := HolmAdjust(q, 0.05)
			for i, j := range perm {
				if got[i] != want[j] {
					t.Fatalf("HolmAdjust(%v) = %v, but permuted to %v it gives %v", p, want, q, got)
				}
			}
		}
	}
}

func TestHolmAdjustEmpty(t *testing.T) {
	if out := HolmAdjust(nil, 0.05); len(out) != 0 {
		t.Fatal("empty input")
	}
}

func TestCompareSuiteCorrectionControlsFalsePositives(t *testing.T) {
	// 12 true ties: without correction the rigorous per-benchmark verdicts
	// fire occasionally; the suite-level Holm correction should almost
	// always report zero significant benchmarks.
	p := noise.Default()
	g := flatGen(1, p)
	rng := stats.NewRNG(99)
	const benchN = 12
	falseFamilies := 0
	const families = 15
	for f := 0; f < families; f++ {
		names := make([]string, benchN)
		bases := make([]stats.HierarchicalSample, benchN)
		treats := make([]stats.HierarchicalSample, benchN)
		for i := 0; i < benchN; i++ {
			names[i] = "b"
			bases[i] = g.Sample(rng.Uint64(), 8, 15)
			treats[i] = g.Sample(rng.Uint64(), 8, 15)
		}
		out := CompareSuite(names, bases, treats, Rigorous{Seed: uint64(f)}, 0.05)
		for _, c := range out {
			if c.SignificantAdjusted {
				falseFamilies++
				break
			}
		}
	}
	// Family-wise alpha 0.05 → expect ~0-2 of 15 families with any false
	// positive.
	if falseFamilies > 4 {
		t.Fatalf("family-wise false positives in %d/%d families", falseFamilies, families)
	}
}

func TestCompareSuiteKeepsRealEffects(t *testing.T) {
	p := noise.Default()
	base := flatGen(1, p)
	fast := flatGen(1.0/1.5, p) // 50% faster
	rng := stats.NewRNG(123)
	names := []string{"tie1", "fast", "tie2"}
	bases := []stats.HierarchicalSample{
		base.Sample(rng.Uint64(), 10, 20),
		base.Sample(rng.Uint64(), 10, 20),
		base.Sample(rng.Uint64(), 10, 20),
	}
	treats := []stats.HierarchicalSample{
		base.Sample(rng.Uint64(), 10, 20),
		fast.Sample(rng.Uint64(), 10, 20),
		base.Sample(rng.Uint64(), 10, 20),
	}
	out := CompareSuite(names, bases, treats, Rigorous{Seed: 7}, 0.05)
	if !out[1].SignificantAdjusted || out[1].Verdict != TreatmentFaster {
		t.Fatalf("real 1.5x effect lost after correction: %+v", out[1])
	}
	if out[1].Speedup < 1.3 {
		t.Fatalf("speedup estimate %v", out[1].Speedup)
	}
	for _, i := range []int{0, 2} {
		if out[i].Verdict != Indistinguishable {
			t.Fatalf("tie %s got verdict %v", out[i].Benchmark, out[i].Verdict)
		}
	}
}
