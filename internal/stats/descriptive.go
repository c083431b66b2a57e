package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean; NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance; NaN for n < 2.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	// Welford's algorithm for numerical stability.
	mean, m2 := 0.0, 0.0
	for i, x := range xs {
		d := x - mean
		mean += d / float64(i+1)
		m2 += d * (x - mean)
	}
	return m2 / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CoV returns the coefficient of variation (stddev / mean).
func CoV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return math.NaN()
	}
	return StdDev(xs) / m
}

// Min returns the smallest element; NaN for empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element; NaN for empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-quantile (0 <= q <= 1) using linear interpolation
// between order statistics (R type-7, the numpy default).
func Quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	s := make([]float64, n)
	copy(s, xs)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

// quantileSorted computes a type-7 quantile on already-sorted data.
func quantileSorted(s []float64, q float64) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return s[n-1]
	}
	frac := h - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// selectQuantile is quantileSorted of s in sort.Float64s order (NaNs
// first) without the sort: it selects the one or two order statistics the
// quantile reads, in expected linear time, and leaves s reordered.
func selectQuantile(s []float64, q float64) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return selectOrderStat(s, n-1)
	}
	frac := h - float64(lo)
	x := selectOrderStat(s, lo)
	y := s[hi] // the next order statistic is the least of s[hi:]
	for _, v := range s[hi+1:] {
		if sortsBefore(v, y) {
			y = v
		}
	}
	return x*(1-frac) + y*frac
}

// selectOrderStat reorders s so that s[k] holds the value sort.Float64s
// would put there, nothing before it sorts after it and nothing after it
// sorts before it, and returns s[k]. It is Hoare's FIND.
func selectOrderStat(s []float64, k int) float64 {
	l, r := 0, len(s)-1
	for l < r {
		p := s[l+(r-l)/2]
		i, j := l, r
		for i <= j {
			for sortsBefore(s[i], p) {
				i++
			}
			for sortsBefore(p, s[j]) {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			r = j
		case k >= i:
			l = i
		default:
			return s[k]
		}
	}
	return s[k]
}

// sortsBefore is sort.Float64s' order: ascending, NaNs first.
func sortsBefore(x, y float64) bool { return x < y || (x != x && y == y) }

// Median returns the 0.5 quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// MAD returns the median absolute deviation (unscaled).
func MAD(xs []float64) float64 {
	return medianAbsDev(xs, make([]float64, len(xs)))
}

// medianAbsDev is MAD with scratch for len(xs) values: it reads both
// medians from scratch, sorted, as Quantile reads them from its copy.
func medianAbsDev(xs, scratch []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	copy(scratch, xs)
	sort.Float64s(scratch)
	m := quantileSorted(scratch, 0.5)
	for i, x := range xs {
		scratch[i] = math.Abs(x - m)
	}
	sort.Float64s(scratch)
	return quantileSorted(scratch, 0.5)
}

// GeoMean returns the geometric mean of positive values; NaN if any value is
// non-positive or the input is empty.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
