package stats

import (
	"math"
	"runtime"
	"sync"
)

// DefaultBootstrapResamples is the resample count used when 0 is passed.
const DefaultBootstrapResamples = 2000

// BootstrapCI returns a percentile-bootstrap confidence interval for an
// arbitrary statistic of one sample. resamples == 0 selects the default.
func BootstrapCI(xs []float64, stat func([]float64) float64,
	confidence float64, resamples int, rng *RNG) Interval {
	if len(xs) == 0 {
		nan := math.NaN()
		return Interval{Lo: nan, Hi: nan, Confidence: confidence}
	}
	if resamples <= 0 {
		resamples = DefaultBootstrapResamples
	}
	estimates := make([]float64, resamples)
	buf := make([]float64, len(xs))
	for r := 0; r < resamples; r++ {
		for i := range buf {
			buf[i] = xs[rng.Intn(len(xs))]
		}
		estimates[r] = stat(buf)
	}
	return percentileInterval(estimates, confidence)
}

// percentileInterval returns the central confidence interval of the
// bootstrap estimates, the quantiles quantileSorted reads from them in
// sort.Float64s order, found by selection. It reorders estimates.
func percentileInterval(estimates []float64, confidence float64) Interval {
	alpha := (1 - confidence) / 2
	return Interval{
		Lo:         selectQuantile(estimates, alpha),
		Hi:         selectQuantile(estimates, 1-alpha),
		Confidence: confidence,
	}
}

// BootstrapMeanCI is BootstrapCI specialized to the mean.
func BootstrapMeanCI(xs []float64, confidence float64, resamples int, rng *RNG) Interval {
	return BootstrapCI(xs, Mean, confidence, resamples, rng)
}

// HierarchicalSample is a two-level (invocation × iteration) measurement
// matrix: Times[i][j] is iteration j of invocation i. This is the data shape
// produced by the rigorous methodology's experiment design.
type HierarchicalSample struct {
	Times [][]float64
}

// InvocationMeans returns the per-invocation iteration means — the level-2
// statistics the Kalibera–Jones analysis and hierarchical bootstrap operate
// on.
func (h HierarchicalSample) InvocationMeans() []float64 {
	out := make([]float64, len(h.Times))
	for i, iter := range h.Times {
		out[i] = Mean(iter)
	}
	return out
}

// Flatten concatenates all iterations (what naive analyses do).
func (h HierarchicalSample) Flatten() []float64 {
	var out []float64
	for _, iter := range h.Times {
		out = append(out, iter...)
	}
	return out
}

// BootstrapHierarchicalRatioCI bootstraps the ratio of grand means between
// two two-level experiments by resampling invocations first and iterations
// within each resampled invocation second, following Kalibera & Jones'
// recommended hierarchical bootstrap for speedup CIs. It runs on the
// cores ParallelFor's budget has spare, bit for bit as one sequential pass
// over rng's stream.
func BootstrapHierarchicalRatioCI(a, b HierarchicalSample,
	confidence float64, resamples int, rng *RNG) Interval {
	if len(a.Times) == 0 || len(b.Times) == 0 {
		nan := math.NaN()
		return Interval{Lo: nan, Hi: nan, Confidence: confidence}
	}
	if resamples <= 0 {
		resamples = DefaultBootstrapResamples
	}
	buf, _ := estimatesPool.Get().(*[]float64)
	if buf == nil {
		buf = new([]float64)
	}
	if cap(*buf) < resamples {
		*buf = make([]float64, resamples)
	}
	estimates := (*buf)[:resamples]
	fillRatios(estimates, a, b, bootstrapWorkers(resamples, a, b), rng)
	ci := percentileInterval(estimates, confidence)
	estimatesPool.Put(buf)
	return ci
}

// estimatesPool keeps BootstrapHierarchicalRatioCI's estimate buffers
// (*[]float64) between calls, so that the comparisons of a Table-4 row do
// not each allocate and collect 2000 floats.
var estimatesPool sync.Pool

// bootstrapChunkDraws is the fewest expected draws worth a worker: ~150 µs.
const bootstrapChunkDraws = 1 << 15

// bootstrapWorkers is one per bootstrapChunkDraws expected draws (a pick per
// invocation and one per iteration), at most one per P and per resample.
func bootstrapWorkers(resamples int, a, b HierarchicalSample) int {
	draws := 0
	for _, h := range [2][][]float64{a.Times, b.Times} {
		for _, inv := range h {
			draws += 1 + len(inv)
		}
	}
	return max(1, min(runtime.GOMAXPROCS(0), resamples, resamples*draws/bootstrapChunkDraws))
}

// fillRatios sets est[r] to the r-th ratio of one sequential pass over
// rng's stream, in workers contiguous chunks, and leaves rng where that
// pass ends. Each chunk but the last goes to a helper from ParallelFor's
// budget, as soon as its start is known, with an RNG value on the helper's
// stack (states kept side by side in one slice would share a cache line);
// the caller then finds the next chunk's start by replaying the chunk's
// invocation picks and skipping each pick's iteration draws. With no
// helper spare, the caller fills the chunk itself with rng, and nothing is
// replayed. The caller fills the last chunk with rng. The WaitGroup is
// made at the first helper, so that a fill with none allocates nothing.
func fillRatios(est []float64, a, b HierarchicalSample, workers int, rng *RNG) {
	var wg *sync.WaitGroup
	lo := 0
	for w := 1; w < workers; w++ {
		hi := w * len(est) / workers
		if !acquireHelper() {
			resampleRatios(est[lo:hi], a, b, rng)
			lo = hi
			continue
		}
		if wg == nil {
			wg = new(sync.WaitGroup)
		}
		wg.Add(1)
		go func(wg *sync.WaitGroup, chunk []float64, chunkRNG RNG) {
			defer wg.Done()
			defer helpers.Add(-1)
			resampleRatios(chunk, a, b, &chunkRNG)
		}(wg, est[lo:hi], RNG{state: rng.state})
		s := rng.state
		for ; lo < hi; lo++ {
			for _, h := range [2][][]float64{a.Times, b.Times} {
				for range h {
					var k int
					s, k = intn(s, len(h))
					s += uint64(len(h[k])) * gamma // skip the picked invocation's iteration draws
				}
			}
		}
		rng.state = s
	}
	resampleRatios(est[lo:], a, b, rng)
	if wg != nil {
		wg.Wait()
	}
}

// resampleRatios sets est[r] to the ratio of a's and b's resampled grand
// means, drawing from rng's stream in order. The state stays in a local
// for the whole chunk and goes back to rng at the end.
func resampleRatios(est []float64, a, b HierarchicalSample, rng *RNG) {
	s := rng.state
	for r := range est {
		var ma, mb float64
		ma, s = resampleGrandMean(a, s)
		mb, s = resampleGrandMean(b, s)
		est[r] = ma / mb
	}
	rng.state = s
}

// resampleGrandMean draws invocations of h with replacement, then
// iterations within each drawn invocation, from the stream at state s,
// and returns their mean and the state after the draws.
func resampleGrandMean(h HierarchicalSample, s uint64) (float64, uint64) {
	n := len(h.Times)
	total, count := 0.0, 0
	for i := 0; i < n; i++ {
		var k int
		s, k = intn(s, n)
		inv := h.Times[k]
		m := len(inv)
		for j := 0; j < m; j++ {
			s, k = intn(s, m)
			total += inv[k]
			count++
		}
	}
	return total / float64(count), s
}
