package stats

import "math"

// TTestResult reports a two-sample Welch t-test.
type TTestResult struct {
	T  float64 // test statistic
	DF float64 // Welch–Satterthwaite degrees of freedom
	P  float64 // two-sided p-value
}

// WelchTTest performs the two-sample t-test without assuming equal
// variances. Requires at least two observations per sample.
func WelchTTest(a, b []float64) TTestResult {
	na, nb := float64(len(a)), float64(len(b))
	if na < 2 || nb < 2 {
		nan := math.NaN()
		return TTestResult{T: nan, DF: nan, P: nan}
	}
	ma, mb := Mean(a), Mean(b)
	va, vb := Variance(a)/na, Variance(b)/nb
	se := math.Sqrt(va + vb)
	if se == 0 {
		if ma == mb {
			return TTestResult{T: 0, DF: na + nb - 2, P: 1}
		}
		return TTestResult{T: math.Inf(1), DF: na + nb - 2, P: 0}
	}
	t := (ma - mb) / se
	df := (va + vb) * (va + vb) / (va*va/(na-1) + vb*vb/(nb-1))
	p := 2 * (1 - StudentTCDF(math.Abs(t), df))
	return TTestResult{T: t, DF: df, P: p}
}

// CohensD returns the standardized mean difference using the pooled
// standard deviation.
func CohensD(a, b []float64) float64 {
	na, nb := float64(len(a)), float64(len(b))
	if na < 2 || nb < 2 {
		return math.NaN()
	}
	pooled := ((na-1)*Variance(a) + (nb-1)*Variance(b)) / (na + nb - 2)
	if pooled <= 0 {
		return math.NaN()
	}
	return (Mean(a) - Mean(b)) / math.Sqrt(pooled)
}
