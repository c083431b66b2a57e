package vm

import "repro/internal/stats"

// GenProgram returns the index-th program progGen draws from seed, for the
// external tests: random_programs.golden is seed 1618, programs 0-199.
func GenProgram(seed uint64, index int) string {
	g := &progGen{rng: stats.NewRNG(seed)}
	src := g.generate()
	for i := 0; i < index; i++ {
		src = g.generate()
	}
	return src
}
