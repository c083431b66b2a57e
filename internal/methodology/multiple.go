package methodology

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// SuiteComparison is one benchmark's entry in a suite-wide comparison.
type SuiteComparison struct {
	Benchmark string
	Comparison
	// PValue is the two-sided Welch p-value on invocation means, used for
	// the multiple-comparison correction.
	PValue float64
	// SignificantAdjusted reports whether the difference survives
	// Holm–Bonferroni at the family-wise alpha.
	SignificantAdjusted bool
}

// HolmAdjust applies the Holm–Bonferroni step-down procedure, returning for
// each p-value whether it is significant at family-wise level alpha.
// Comparing a treatment against a baseline across a whole suite is a
// multiple-testing problem; without correction, the expected number of
// false "significant" benchmarks grows linearly with suite size.
//
// A NaN p-value (stats.WelchTTest's for a sample of fewer than two
// invocations) is a test that was run and decided nothing: it counts in
// the family size, sorts after every other p-value, and is never
// significant, so the answer does not depend on where it sits.
func HolmAdjust(pvalues []float64, alpha float64) []bool {
	n := len(pvalues)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		pa, pb := pvalues[idx[a]], pvalues[idx[b]]
		return pa < pb || (!math.IsNaN(pa) && math.IsNaN(pb))
	})
	out := make([]bool, n)
	for rank, i := range idx {
		threshold := alpha / float64(n-rank)
		if pvalues[i] <= threshold {
			out[i] = true
		} else {
			break // step-down: once one fails, all larger p-values fail
		}
	}
	return out
}

// CompareSuite runs the rigorous methodology on each benchmark pair and
// applies the Holm–Bonferroni correction across the suite at the given
// family-wise alpha (0 means 0.05). baselines and treatments are parallel
// slices of two-level samples, one per benchmark.
func CompareSuite(names []string, baselines, treatments []stats.HierarchicalSample,
	rig Rigorous, alpha float64) []SuiteComparison {
	if alpha == 0 {
		alpha = 0.05
	}
	out := make([]SuiteComparison, len(names))
	pvalues := make([]float64, len(names))
	for i := range names {
		cmp := rig.Compare(baselines[i], treatments[i])
		tt := stats.WelchTTest(baselines[i].InvocationMeans(), treatments[i].InvocationMeans())
		out[i] = SuiteComparison{
			Benchmark:  names[i],
			Comparison: cmp,
			PValue:     tt.P,
		}
		pvalues[i] = tt.P
	}
	sig := HolmAdjust(pvalues, alpha)
	for i := range out {
		out[i].SignificantAdjusted = sig[i]
		// A verdict that does not survive the family-wise correction is
		// downgraded to indistinguishable.
		if !sig[i] {
			out[i].Comparison.Verdict = Indistinguishable
		}
	}
	return out
}
