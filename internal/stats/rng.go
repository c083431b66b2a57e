// Package stats implements the statistically rigorous analysis kernels the
// benchmarking methodology is built on: descriptive statistics, confidence
// intervals (Student-t and bootstrap), two-level Kalibera–Jones variance
// decomposition, hypothesis tests, changepoint detection for steady-state
// classification, and a deterministic seeded RNG used by every stochastic
// component in the repository.
package stats

import (
	"math"
	"math/bits"
)

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

// SplitMix64's two output multipliers.
const (
	mixMul1 = 0xBF58476D1CE4E5B9
	mixMul2 = 0x94D049BB133111EB
)

// mix64 is SplitMix64's output function: the draw of the stream whose
// state has just been advanced to z.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * mixMul1
	z = (z ^ (z >> 27)) * mixMul2
	return z ^ (z >> 31)
}

// streamKeys holds the stream's increment and mix64's multipliers as
// values, not constants. A loop that copies drawKeys into a local keeps
// the three in registers; with the constants, the compiler loads each
// 64-bit immediate again at every use, three instructions a draw.
type streamKeys struct{ gamma, mul1, mul2 uint64 }

var drawKeys = streamKeys{gamma, mixMul1, mixMul2}

// mix is mix64 with k's multipliers.
func (k streamKeys) mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * k.mul1
	z = (z ^ (z >> 27)) * k.mul2
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

// reciprocal computes x % m with two multiplies instead of a division, for
// a fixed m ≥ 2: Granlund & Montgomery's unsigned division by an invariant
// integer (PLDI'94, Fig. 4.1; Hacker's Delight §10-8). With
// l = ⌈log₂ m⌉ and magic = ⌊2⁶⁴·(2ˡ − m)/m⌋ + 1, the quotient of any
// 64-bit x is (t + (x − t)/2) >> (l − 1), where t is the high word of
// magic·x, and the paper proves it exact for every x < 2⁶⁴. So mod
// returns exactly x % m, with no bound on x or m and no fallback. It does
// not hold m: its caller passes the m it was built for.
type reciprocal struct {
	magic uint64
	shift uint // l − 1
}

// newReciprocal returns the reciprocal of m, which must be at least 2.
func newReciprocal(m uint64) reciprocal {
	l := uint(bits.Len64(m - 1))
	// 2ˡ − m < m, so the 128-by-64 division cannot overflow; at l = 64,
	// 1<<l is 0 and the subtraction wraps to 2⁶⁴ − m.
	magic, _ := bits.Div64(1<<l-m, 0, m)
	return reciprocal{magic: magic + 1, shift: l - 1}
}

// mod returns x % m, for the m that r was built for. t ≤ x, so neither
// the difference nor the sum wraps. The shift count is masked, which it
// always fits, so that the compiler emits no branch for an oversized
// shift.
func (r reciprocal) mod(x, m uint64) uint64 {
	t, _ := bits.Mul64(r.magic, x)
	q := (t + (x-t)>>1) >> (r.shift & 63)
	return x - q*m
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
