package stats

import (
	"fmt"
	"testing"
)

// Property tests for changepoint localization: steady-state classification
// (ClassifySteadyState, ablation A4) cuts warm-up where PELT places a
// changepoint, so these pin the contract it depends on — an injected step
// lands within ±1 index of where it was injected, and pure noise never
// alarms — across many seeds and step geometries.

// noisySteps builds a series of n points at the given segment levels
// (boundaries are the indices where each later segment begins), with
// Gaussian noise of the given sigma from a deterministic RNG.
func noisySteps(rng *RNG, n int, levels []float64, boundaries []int, sigma float64) []float64 {
	xs := make([]float64, n)
	seg := 0
	for i := range xs {
		for seg+1 < len(levels) && seg < len(boundaries) && i >= boundaries[seg] {
			seg++
		}
		xs[i] = levels[seg] + sigma*rng.NormFloat64()
	}
	return xs
}

// within1 reports whether got contains a value within ±1 of want.
func within1(got []int, want int) bool {
	for _, g := range got {
		if g >= want-1 && g <= want+1 {
			return true
		}
	}
	return false
}

func TestPELTSingleStepLocalizedWithinOne(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		for _, at := range []int{8, 20, 35} {
			rng := NewRNG(seed).Split(uint64(at))
			xs := noisySteps(rng, 50, []float64{1.0, 1.2}, []int{at}, 0.01)
			cps := PELT(xs, 0)
			if !within1(cps, at) {
				t.Errorf("seed %d: 20%% step at %d not localized: got %v", seed, at, cps)
			}
			if len(cps) > 2 {
				t.Errorf("seed %d: step at %d over-segmented: got %v", seed, at, cps)
			}
		}
	}
}

func TestPELTDoubleStepBothLocalizedWithinOne(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		rng := NewRNG(seed)
		xs := noisySteps(rng, 60, []float64{1.0, 1.3, 0.9}, []int{20, 40}, 0.01)
		cps := PELT(xs, 0)
		if !within1(cps, 20) || !within1(cps, 40) {
			t.Errorf("seed %d: steps at 20 and 40 not both localized: got %v", seed, cps)
		}
	}
}

// Pure noise: a statistical detector has a false-positive rate, so the
// property is two-sided — false alarms are rare (a few percent of seeds),
// and any spurious changepoint is practically insignificant: its segment
// delta sits below 5%, so noise alone never reads as a level shift.
func TestPELTPureNoiseRarelyAndOnlyTriviallyAlarms(t *testing.T) {
	const seeds = 50
	alarms := 0
	for seed := uint64(1); seed <= seeds; seed++ {
		rng := NewRNG(seed)
		xs := make([]float64, 50)
		for i := range xs {
			xs[i] = 1.0 + 0.01*rng.NormFloat64()
		}
		cps := PELT(xs, 0)
		if len(cps) == 0 {
			continue
		}
		alarms++
		starts := append([]int{0}, cps...)
		for s := 1; s < len(starts); s++ {
			end := len(xs)
			if s+1 < len(starts) {
				end = starts[s+1]
			}
			before := Mean(xs[starts[s-1]:starts[s]])
			after := Mean(xs[starts[s]:end])
			if delta := 100 * (after - before) / before; delta >= 5 || delta <= -5 {
				t.Errorf("seed %d: spurious changepoint %v has practically significant delta %.1f%%",
					seed, cps, delta)
			}
		}
	}
	if alarms > seeds/10 {
		t.Errorf("pure noise alarmed on %d/%d seeds, want <= %d", alarms, seeds, seeds/10)
	}
}

// A slow drift has no true step, so PELT may legitimately approximate it
// with a staircase — but the staircase must be faithful: segment means
// monotone nondecreasing, tracking the drift's direction.
func TestPELTSlowDriftSegmentsAreMonotone(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := NewRNG(seed)
		n := 60
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 1.0 + 0.3*float64(i)/float64(n-1) + 0.005*rng.NormFloat64()
		}
		cps := PELT(xs, 0)
		starts := append([]int{0}, cps...)
		prev := -1.0
		for s, start := range starts {
			end := n
			if s+1 < len(starts) {
				end = starts[s+1]
			}
			m := Mean(xs[start:end])
			if m < prev {
				t.Errorf("seed %d: segment means not monotone under upward drift: %v", seed, cps)
				break
			}
			prev = m
		}
	}
}

// The robust penalty must keep working as the series grows: the same
// relative step stays localized whether the history holds 10 runs or 200.
func TestPELTStepLocalizationScalesWithSeriesLength(t *testing.T) {
	for _, n := range []int{10, 40, 200} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			at := n / 2
			rng := NewRNG(99).Split(uint64(n))
			xs := noisySteps(rng, n, []float64{1.0, 1.2}, []int{at}, 0.01)
			cps := PELT(xs, 0)
			if !within1(cps, at) {
				t.Errorf("n=%d: step at %d not localized: got %v", n, at, cps)
			}
		})
	}
}
