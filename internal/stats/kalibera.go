package stats

import "math"

// VarianceDecomposition is the two-level random-effects decomposition of a
// benchmarking experiment, following Kalibera & Jones ("Rigorous
// Benchmarking in Reasonable Time", ISMM'13): total variability splits into
// a between-invocation component (layout lottery, per-process state) and a
// within-invocation component (iteration noise).
type VarianceDecomposition struct {
	Invocations int
	Iterations  int // iterations per invocation (must be balanced)
	GrandMean   float64
	// S1Sq is the pooled within-invocation sample variance.
	S1Sq float64
	// S2Sq is the sample variance of invocation means.
	S2Sq float64
	// BetweenVar is the unbiased estimate of the true between-invocation
	// variance component: S2² − S1²/iterations (clamped at 0).
	BetweenVar float64
	// WithinVar is S1², the within-invocation variance component.
	WithinVar float64
}

// BetweenFraction is the fraction of the grand-mean sampling variance that
// the between-invocation component contributes; 1 means adding iterations
// is useless and only more invocations help.
func (vd VarianceDecomposition) BetweenFraction() float64 {
	total := vd.BetweenVar + vd.WithinVar/float64(vd.Iterations)
	if total <= 0 {
		return 0
	}
	return vd.BetweenVar / total
}

// DecomposeVariance computes the two-level decomposition. The design must be
// balanced (equal iterations per invocation); the harness guarantees that.
func DecomposeVariance(h HierarchicalSample) VarianceDecomposition {
	n := len(h.Times)
	if n == 0 {
		return VarianceDecomposition{}
	}
	m := len(h.Times[0])
	means := h.InvocationMeans()
	grand := Mean(means)

	// Pooled within-invocation variance.
	s1 := 0.0
	if m >= 2 {
		for _, inv := range h.Times {
			s1 += Variance(inv)
		}
		s1 /= float64(n)
	}
	// Variance of invocation means.
	s2 := 0.0
	if n >= 2 {
		s2 = Variance(means)
	}
	between := s2 - s1/float64(m)
	if between < 0 {
		between = 0
	}
	return VarianceDecomposition{
		Invocations: n,
		Iterations:  m,
		GrandMean:   grand,
		S1Sq:        s1,
		S2Sq:        s2,
		BetweenVar:  between,
		WithinVar:   s1,
	}
}

// KaliberaMeanCI returns the confidence interval for the grand mean of a
// two-level experiment. The variance of the grand mean is S2²/n (the
// variance of invocation means already absorbs the within component), with
// n−1 degrees of freedom — i.e. the correct unit of replication is the
// invocation, not the iteration. Treating all n*m iterations as independent
// (what naive analyses do) understates the CI width whenever the
// between-invocation component is non-zero.
func KaliberaMeanCI(h HierarchicalSample, confidence float64) Interval {
	n := len(h.Times)
	if n < 2 {
		nan := math.NaN()
		return Interval{Lo: nan, Hi: nan, Confidence: confidence}
	}
	means := h.InvocationMeans()
	return MeanCI(means, confidence)
}

// NaiveFlattenedCI is the incorrect interval obtained by pooling all
// iterations as if independent. Exposed so the methodology can quantify how
// badly it undercovers.
func NaiveFlattenedCI(h HierarchicalSample, confidence float64) Interval {
	return MeanCI(h.Flatten(), confidence)
}
