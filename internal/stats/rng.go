// Package stats implements the statistically rigorous analysis kernels the
// benchmarking methodology is built on: descriptive statistics, confidence
// intervals (Student-t and bootstrap), two-level Kalibera–Jones variance
// decomposition, hypothesis tests, changepoint detection for steady-state
// classification, and a deterministic seeded RNG used by every stochastic
// component in the repository.
package stats

import "math"

// RNG is a small, fast, deterministic SplitMix64 generator. It is the only
// randomness source in the repository, which makes every experiment
// reproducible bit-for-bit from its seed.
type RNG struct {
	state uint64
	// Box-Muller spare value.
	hasSpare bool
	spare    float64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split derives an independent child stream; streams derived with different
// ids never overlap in practice.
func (r *RNG) Split(id uint64) *RNG {
	return NewRNG(r.Uint64() ^ (id*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D))
}

// gamma is SplitMix64's Weyl increment: the state after k draws is the
// start state plus k·gamma, so a stream jumps ahead k draws in O(1).
const gamma = 0x9E3779B97F4A7C15

// Uint64 returns the next 64 uniform random bits.
func (r *RNG) Uint64() uint64 {
	r.state += gamma
	return mix64(r.state)
}

// mix64 is SplitMix64's output function: the draw of the stream whose
// state has just been advanced to z.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn is Intn on a state held by the caller: it advances s by one draw
// and returns it with the draw's value in [0, n). A loop that keeps s in a
// local, and writes it back to its RNG when it is done, keeps the state in
// a register instead of loading and storing it through the RNG on every
// draw. n must be positive.
func intn(s uint64, n int) (uint64, int) {
	s += gamma
	return s, int(mix64(s) % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	var k int
	r.state, k = intn(r.state, n)
	return k
}

// NormFloat64 returns a standard normal deviate (Box–Muller).
func (r *RNG) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	m := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * m
	r.hasSpare = true
	return u * m
}

// LogNormal returns exp(mu + sigma*Z).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Exp returns an exponential deviate with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	return -mean * math.Log(1-r.Float64())
}
