// Package noise simulates the measurement-noise structure of real
// benchmarking machines, deterministically from a seed. The model is
// two-level, matching what the rigorous-benchmarking literature documents
// (Kalibera & Jones ISMM'13, pyperf's system-tuning docs):
//
//   - a per-invocation multiplicative effect (address-space layout, CPU
//     frequency lottery, process placement) drawn once per VM invocation;
//   - per-iteration multiplicative jitter (timer quantization, minor
//     scheduling noise);
//   - rare additive interference spikes (daemons, interrupts);
//   - an optional slow drift (thermal throttling) across iterations.
//
// This structure is what gives the statistics real work to do: naive
// methodologies that treat all iterations as independent samples are
// demonstrably misled by the invocation-level component.
package noise

import "repro/internal/stats"

// Params configures the noise model. The zero value means "no noise".
type Params struct {
	// InvocationSigma is the lognormal σ of the per-invocation multiplier.
	InvocationSigma float64
	// IterationSigma is the lognormal σ of the per-iteration multiplier.
	IterationSigma float64
	// SpikeProb is the per-iteration probability of an interference spike.
	SpikeProb float64
	// SpikeScale is the mean spike magnitude as a fraction of the base time
	// (spikes are exponentially distributed).
	SpikeScale float64
	// DriftPerIter adds a multiplicative drift of (1 + DriftPerIter*iter),
	// modelling thermal throttling; usually 0.
	DriftPerIter float64
}

// Default returns the calibrated noise model: ~2% invocation effect, ~0.6%
// iteration jitter, 2% spike probability at ~8% magnitude. These levels sit
// in the middle of what timing studies report for untuned Linux desktops.
func Default() Params {
	return Params{
		InvocationSigma: 0.020,
		IterationSigma:  0.006,
		SpikeProb:       0.02,
		SpikeScale:      0.08,
	}
}

// Quiet returns a lab-grade tuned-machine model (isolcpus, pinned
// frequency): tiny invocation effect, minimal jitter.
func Quiet() Params {
	return Params{
		InvocationSigma: 0.003,
		IterationSigma:  0.001,
		SpikeProb:       0.001,
		SpikeScale:      0.02,
	}
}

// Noisy returns a shared-machine model (CI runners, laptops on battery).
func Noisy() Params {
	return Params{
		InvocationSigma: 0.06,
		IterationSigma:  0.02,
		SpikeProb:       0.08,
		SpikeScale:      0.25,
		DriftPerIter:    0.0002,
	}
}

// None disables noise entirely (pure cost-model time).
func None() Params { return Params{} }

// Source generates the noise for one VM invocation.
type Source struct {
	p         Params
	rng       *stats.RNG
	invFactor float64
	iter      int
}

// NewSource creates the noise stream for invocation index inv under the
// experiment seed. Different (seed, inv) pairs are independent.
func NewSource(p Params, seed uint64, inv int) *Source {
	rng := stats.NewRNG(seed).Split(uint64(inv) + 0x5151)
	invFactor := 1.0
	if p.InvocationSigma > 0 {
		invFactor = rng.LogNormal(0, p.InvocationSigma)
	}
	return &Source{p: p, rng: rng, invFactor: invFactor}
}

// InvocationFactor exposes the drawn per-invocation multiplier (useful for
// tests and variance-decomposition validation).
func (s *Source) InvocationFactor() float64 { return s.invFactor }

// Apply perturbs one iteration's base time (seconds) and advances the
// stream. Iterations must be applied in order.
func (s *Source) Apply(base float64) float64 {
	t := base * s.invFactor
	if s.p.IterationSigma > 0 {
		t *= s.rng.LogNormal(0, s.p.IterationSigma)
	}
	if s.p.SpikeProb > 0 && s.rng.Float64() < s.p.SpikeProb {
		t += base * s.rng.Exp(s.p.SpikeScale)
	}
	if s.p.DriftPerIter != 0 {
		t *= 1 + s.p.DriftPerIter*float64(s.iter)
	}
	s.iter++
	return t
}

// Perturb returns the measured times of invocation inv: n iterations whose
// noise-free times are base (past its end, base's last value repeats, as
// in a steady state), each perturbed in order by the (seed, inv) stream.
// It is the one noise loop: the harness replays a simulation through it,
// and the synthetic trials of the methodology package are drawn with it.
func Perturb(p Params, seed uint64, inv int, base []float64, n int) []float64 {
	src := NewSource(p, seed, inv)
	row := make([]float64, n)
	for j := range row {
		b := base[len(base)-1]
		if j < len(base) {
			b = base[j]
		}
		row[j] = src.Apply(b)
	}
	return row
}
