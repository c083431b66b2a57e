package stats

import "math"

// Interval is a two-sided confidence interval with its confidence level.
type Interval struct {
	Lo, Hi     float64
	Confidence float64 // e.g. 0.95
}

// HalfWidth returns half the interval width.
func (iv Interval) HalfWidth() float64 { return (iv.Hi - iv.Lo) / 2 }

// Center returns the interval midpoint.
func (iv Interval) Center() float64 { return (iv.Lo + iv.Hi) / 2 }

// Contains reports whether x lies inside the interval.
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x <= iv.Hi }

// RelHalfWidth returns the half-width as a fraction of the center (the
// "±x%" figure practitioners quote); NaN when the center is 0.
func (iv Interval) RelHalfWidth() float64 {
	c := iv.Center()
	if c == 0 {
		return math.NaN()
	}
	return iv.HalfWidth() / math.Abs(c)
}

// MeanCI returns the Student-t confidence interval for the population mean
// at the given confidence level (e.g. 0.95). Requires n >= 2.
func MeanCI(xs []float64, confidence float64) Interval {
	n := len(xs)
	if n < 2 {
		nan := math.NaN()
		return Interval{Lo: nan, Hi: nan, Confidence: confidence}
	}
	m := Mean(xs)
	se := StdDev(xs) / math.Sqrt(float64(n))
	t := StudentTQuantile(1-(1-confidence)/2, float64(n-1))
	return Interval{Lo: m - t*se, Hi: m + t*se, Confidence: confidence}
}

// RequiredN estimates how many samples are needed for the mean's CI
// half-width to shrink to target, given a pilot sample. It inverts
// hw = t * s / sqrt(n) using the normal quantile (adequate for planning).
func RequiredN(pilot []float64, confidence, targetHalfWidth float64) int {
	if len(pilot) < 2 || targetHalfWidth <= 0 {
		return 0
	}
	s := StdDev(pilot)
	z := NormalQuantile(1 - (1-confidence)/2)
	n := math.Ceil((z * s / targetHalfWidth) * (z * s / targetHalfWidth))
	if n < 2 {
		n = 2
	}
	return int(n)
}
