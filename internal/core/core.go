// Package core is the public face of the reproduction: it wires the MiniPy
// engines, the noise model, the harness, the statistics layer, and the
// methodology package into the experiments of the paper's evaluation
// (tables T1–T5, figures F1–F8, plus ablations A1–A9). Each experiment
// method returns a report.Table or report.Figure whose text rendering is
// what EXPERIMENTS.md records.
package core

import (
	"context"
	"fmt"

	"repro/internal/faults"
	"repro/internal/harness"
	"repro/internal/methodology"
	"repro/internal/noise"
	"repro/internal/stats"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// Config scales the experiments. The zero value selects the full published
// configuration; tests shrink it for speed.
type Config struct {
	// Seed drives every stochastic component. Default 42.
	Seed uint64
	// Invocations and Iterations set the default experiment design.
	// Defaults: 10 × 30.
	Invocations int
	Iterations  int
	// WarmupIterations is the iteration count used by warmup-focused
	// experiments (T3, F1). Default 60.
	WarmupIterations int
	// Trials is the synthetic-trial count for methodology-error experiments
	// (T4, F8). Default 200.
	Trials int
	// Noise selects the simulated machine. Default noise.Default().
	Noise noise.Params
	// Confidence for all intervals. Default 0.95.
	Confidence float64
	// Benchmarks restricts the suite (nil = full suite).
	Benchmarks []workloads.Benchmark

	// Supervision policy. Every experiment runs under harness.Supervisor;
	// the zero policy reproduces the bare Runner's sample sets.

	// Retries is the per-invocation retry budget.
	Retries int
	// Quorum is the minimum successful invocations per experiment
	// (0 = all must succeed).
	Quorum int
	// Faults is the injected fault model (zero = none).
	Faults faults.Params
	// FaultSeed seeds the fault schedule (0 = the experiment seed).
	FaultSeed uint64
	// CheckpointDir, when set, persists per-experiment progress there (as
	// crash-safe write-ahead journals) so interrupted runs resume without
	// re-running completed invocations.
	CheckpointDir string
	// Isolation shells invocation attempts out to watchdogged worker
	// subprocesses (zero value = in-process execution).
	Isolation harness.IsolationOptions

	// Workers > 1 fans invocations out across that many shards. The sample
	// set is identical to the sequential run by construction (see
	// harness.SupervisorOptions.Workers); only wall time changes.
	Workers int
	// ParallelPolicy governs the interference guard when Workers > 1
	// (guard/fallback/force; zero value = guard).
	ParallelPolicy harness.ParallelPolicy
}

// Supervised reports whether any supervision policy is configured.
func (c Config) Supervised() bool {
	return c.Retries > 0 || c.Quorum > 0 || c.Faults.Enabled() ||
		c.CheckpointDir != "" || c.Isolation.Enabled
}

// SupervisorOptions maps the config's supervision and parallelism knobs
// onto the harness policy.
func (c Config) SupervisorOptions() harness.SupervisorOptions {
	return harness.SupervisorOptions{
		MaxRetries: c.Retries,
		Quorum:     c.Quorum,
		Faults:     c.Faults,
		FaultSeed:  c.FaultSeed,
		Workers:    c.Workers,
		Policy:     c.ParallelPolicy,
		Checkpoint: harness.CheckpointDir{Dir: c.CheckpointDir},
		Isolation:  c.Isolation,
	}
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Invocations == 0 {
		c.Invocations = 10
	}
	if c.Iterations == 0 {
		c.Iterations = 30
	}
	if c.WarmupIterations == 0 {
		c.WarmupIterations = 60
	}
	if c.Trials == 0 {
		c.Trials = 200
	}
	if c.Noise == (noise.Params{}) {
		c.Noise = noise.Default()
	}
	if c.Confidence == 0 {
		c.Confidence = 0.95
	}
	if c.Benchmarks == nil {
		c.Benchmarks = workloads.Suite()
	}
	return c
}

// Engine runs experiments. It caches compiled workloads and noise-free base
// profiles, so regenerating several tables shares the expensive simulation.
type Engine struct {
	cfg      Config
	runner   *harness.Runner
	profiles map[string][]float64 // key: bench/mode
}

// New creates an experiment engine.
func New(cfg Config) *Engine {
	return &Engine{
		cfg:      cfg.withDefaults(),
		runner:   harness.NewRunner(),
		profiles: map[string][]float64{},
	}
}

// Config returns the resolved configuration.
func (e *Engine) Config() Config { return e.cfg }

// run executes one benchmark × engine experiment with the configured noise
// under the configured supervision policy.
func (e *Engine) run(b workloads.Benchmark, mode vm.Mode, inv, iter int, counters bool) (*harness.Result, error) {
	opts := harness.Options{
		Mode:         mode,
		Invocations:  inv,
		Iterations:   iter,
		Seed:         e.cfg.Seed ^ benchSeed(b.Name, mode),
		Noise:        e.cfg.Noise,
		WithCounters: counters,
	}
	return harness.NewSupervisor(e.runner, e.cfg.SupervisorOptions()).Run(context.Background(), b, opts)
}

// baseProfile returns the noise-free per-iteration base times of one
// invocation (the engine's deterministic warmup shape), cached.
func (e *Engine) baseProfile(b workloads.Benchmark, mode vm.Mode, iterations int) ([]float64, error) {
	key := fmt.Sprintf("%s/%s/%d", b.Name, mode, iterations)
	if p, ok := e.profiles[key]; ok {
		return p, nil
	}
	res, err := e.runner.Run(b, harness.Options{
		Mode:        mode,
		Invocations: 1,
		Iterations:  iterations,
		Noise:       noise.None(),
	})
	if err != nil {
		return nil, err
	}
	p := res.Invocations[0].TimesSec
	e.profiles[key] = p
	return p, nil
}

// generatorPair builds baseline (interp) and treatment (jit) trial
// generators for a benchmark from its noise-free profiles.
func (e *Engine) generatorPair(b workloads.Benchmark, iterations int) (baseI, baseJ methodology.TrialGenerator, err error) {
	pi, err := e.baseProfile(b, vm.ModeInterp, iterations)
	if err != nil {
		return baseI, baseJ, err
	}
	pj, err := e.baseProfile(b, vm.ModeJIT, iterations)
	if err != nil {
		return baseI, baseJ, err
	}
	return methodology.TrialGenerator{Base: pi, Noise: e.cfg.Noise},
		methodology.TrialGenerator{Base: pj, Noise: e.cfg.Noise}, nil
}

// benchSeed derives a per-(benchmark, mode) seed offset so experiments do
// not share noise streams.
func benchSeed(name string, mode vm.Mode) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h ^ uint64(mode+1)<<32
}

// Experiment runs an experiment by id ("T1".."T5", "F1".."F8", "A1".."A9")
// and returns its rendered report.
func (e *Engine) Experiment(id string) (fmt.Stringer, error) {
	switch id {
	case "T1":
		return e.Table1()
	case "T2":
		return e.Table2()
	case "T3":
		return e.Table3()
	case "T4":
		return e.Table4()
	case "T5":
		return e.Table5()
	case "F1":
		return e.Figure1()
	case "F2":
		return e.Figure2()
	case "F3":
		return e.Figure3()
	case "F4":
		return e.Figure4()
	case "F5":
		return e.Figure5()
	case "F6":
		return e.Figure6()
	case "F7":
		return e.Figure7()
	case "F8":
		return e.Figure8()
	case "A1":
		return e.AblationDispatch()
	case "A2":
		return e.AblationJITThreshold()
	case "A3":
		return e.AblationCIMethod()
	case "A4":
		return e.AblationChangepoint()
	case "A5":
		return e.AblationNoiseModel()
	case "A6":
		return e.AblationInlineCache()
	case "A7":
		return e.AblationSuperinstructions()
	case "A8":
		return e.AblationFactGates()
	case "A9":
		return e.AblationRegisterElision()
	}
	return nil, fmt.Errorf("core: unknown experiment %q", id)
}

// ExperimentIDs lists every experiment id in canonical order.
func ExperimentIDs() []string {
	return []string{"T1", "T2", "T3", "T4", "T5",
		"F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8",
		"A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9"}
}

// SpeedupResult is one benchmark's rigorous interp-vs-jit comparison,
// exposed for the examples and CLI.
type SpeedupResult struct {
	Benchmark string
	Speedup   float64
	CI        stats.Interval
	Verdict   methodology.Verdict
	// Degradation is a human-readable account of lost work under
	// supervision ("" when both arms ran clean).
	Degradation string
}

// CompareEngines runs the rigorous methodology on every configured
// benchmark (interpreter as baseline, JIT as treatment) and returns
// per-benchmark speedups plus the geometric mean.
func (e *Engine) CompareEngines() ([]SpeedupResult, float64, error) {
	rig := methodology.Rigorous{Confidence: e.cfg.Confidence, Seed: e.cfg.Seed}
	var out []SpeedupResult
	var speedups []float64
	for _, b := range e.cfg.Benchmarks {
		ri, rj, err := e.runPair(b)
		if err != nil {
			return nil, 0, err
		}
		cmp := rig.Compare(ri.Hierarchical(), rj.Hierarchical())
		out = append(out, SpeedupResult{
			Benchmark:   b.Name,
			Speedup:     cmp.Speedup,
			CI:          cmp.CI,
			Verdict:     cmp.Verdict,
			Degradation: degradationNote(ri, rj),
		})
		speedups = append(speedups, cmp.Speedup)
	}
	return out, stats.GeoMean(speedups), nil
}

// degradationNote summarizes lost work across both arms of a comparison
// ("" when both arms ran clean).
func degradationNote(ri, rj *harness.Result) string {
	note := func(arm string, r *harness.Result) string {
		sv := r.Supervision
		if sv == nil || !sv.Degraded() {
			return ""
		}
		return fmt.Sprintf("%s: N %d/%d, %d retries, %d quarantined",
			arm, sv.EffectiveN(), sv.Planned, sv.Retries, sv.QuarantinedSamples)
	}
	ni, nj := note("interp", ri), note("jit", rj)
	switch {
	case ni != "" && nj != "":
		return ni + "; " + nj
	case ni != "":
		return ni
	default:
		return nj
	}
}

func (e *Engine) runPair(b workloads.Benchmark) (*harness.Result, *harness.Result, error) {
	ri, err := e.run(b, vm.ModeInterp, e.cfg.Invocations, e.cfg.Iterations, false)
	if err != nil {
		return nil, nil, err
	}
	rj, err := e.run(b, vm.ModeJIT, e.cfg.Invocations, e.cfg.Iterations, false)
	if err != nil {
		return nil, nil, err
	}
	return ri, rj, nil
}
