package methodology

import (
	"testing"

	"repro/internal/noise"
)

var benchRates ErrorRates

// BenchmarkEvaluateMethodology times one Table-4 row the way a perfbench
// misleading-rates op runs it: All's six methodologies, the rigorous one
// first, each scored over 10 trials of a 6 × 16 design, on an
// interpreter-like flat generator and a JIT-like warming one. `make
// bench-go` runs it at -cpu 2 and gates its allocs/op and B/op against
// the committed BENCH_stats.json, so a trial loop that allocates its
// samples again fails the target.
func BenchmarkEvaluateMethodology(b *testing.B) {
	p := noise.Default()
	interp, jit := flatGen(1, p), warmupGen(0.4, p)
	all := All(1)
	row := append(all[len(all)-1:], all[:len(all)-1]...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range row {
			benchRates = EvaluateMethodology(m, interp, jit, 6, 16, 10, 0.01, 7)
		}
	}
}
