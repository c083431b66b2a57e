package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: fewer, and the figure is one or two unlucky ops.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1). It
// refuses, with an error, a percentile that fewer than minBeyond samples
// lie beyond.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", 100*q)
	}
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if beyond := n - 1 - k; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d",
			100*q, n, beyond, minBeyond)
	}
	s := sortedCopy(xs)
	return s[k], nil
}

// median returns the middle of xs (the mean of the two middle values for
// an even count); NaN for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// meanSetup runs n fresh set-ups, each after a garbage collection, and
// returns their mean time in seconds. A single sample of a sub-second
// set-up moves by tens of percent between runs. The reference host also
// flips between a fast and a slow state every few hundred milliseconds,
// so the samples of a set-up of a few milliseconds are bimodal and their
// median jumps with the mix; the mean of a batch spanning the flips moves
// with it smoothly.
func meanSetup(n int, setUp func() (float64, error)) (float64, error) {
	var sum float64
	for range n {
		runtime.GC()
		s, err := setUp()
		if err != nil {
			return 0, err
		}
		sum += s
	}
	return sum / float64(n), nil
}
