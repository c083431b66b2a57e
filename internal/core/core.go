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
	"repro/internal/report"
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
	// Noise selects the simulated machine's noise. The zero value is
	// noiseless (noise.None), as everywhere else in the program.
	Noise noise.Params
	// Benchmarks restricts the suite (nil = full suite).
	Benchmarks []workloads.Benchmark

	// Supervision policy. Every run of every experiment goes through
	// Engine.run under harness.Supervisor; the zero policy reproduces the
	// bare Runner's sample sets. The fault schedule is drawn from Seed,
	// which the supervisor salts per benchmark and mode.

	// Retries is the per-invocation retry budget.
	Retries int
	// Quorum is the minimum successful invocations per experiment
	// (0 = all must succeed).
	Quorum int
	// Faults is the injected fault model (zero = none).
	Faults faults.Params
	// CheckpointDir, when set, persists every run's progress there, one
	// crash-safe write-ahead journal per experiment key, so interrupted
	// runs resume without re-running completed invocations, and every
	// experiment (and pybench -suite or -bench) can share the directory.
	CheckpointDir string
	// Isolation shells each experiment's VM runs out to a watchdogged
	// worker subprocess (zero value = in-process execution).
	Isolation harness.IsolationOptions
}

// Supervised reports whether any supervision policy is configured.
func (c Config) Supervised() bool {
	return c.Retries > 0 || c.Quorum > 0 || c.Faults.Enabled() ||
		c.CheckpointDir != "" || c.Isolation.Enabled
}

// SupervisorOptions maps the config's supervision knobs onto the harness
// policy. The fault seed is the campaign seed, unsalted: the supervisor
// salts it per benchmark and mode, so each benchmark draws its own fault
// schedule, the one pybench -bench draws at the same seed.
func (c Config) SupervisorOptions() harness.SupervisorOptions {
	return harness.SupervisorOptions{
		MaxRetries:    c.Retries,
		Quorum:        c.Quorum,
		Faults:        c.Faults,
		FaultSeed:     c.Seed,
		CheckpointDir: c.CheckpointDir,
		Isolation:     c.Isolation,
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
	profiles map[string][]float64 // key: bench/mode/iterations
	lost     []string             // LostWork lines of the runs since Experiment began
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

// Runner returns the runner every experiment of the engine runs on, so a
// caller can attach its observer (trace and metrics sinks) to it.
func (e *Engine) Runner() *harness.Runner { return e.runner }

// run executes experiment o of benchmark b under the configured
// supervision policy; it is the only code in the package that runs the VM.
// o carries the design (a zero Noise is noiseless); run XORs o.Seed (zero
// unless an arm salts it) with one rule, Seed ^ benchSeed(name, mode),
// salted <<48 by the opt level plus the move-elision bit, so each executed
// stream of an ablation draws noise of its own. Noise-free times do not
// depend on the seed. A run that lost work leaves its LostWork line for
// Experiment to footnote.
func (e *Engine) run(b workloads.Benchmark, o harness.Options) (*harness.Result, error) {
	elide, err := vm.ParseVM(o.VM)
	if err != nil {
		return nil, err
	}
	salt := uint64(o.Opt)
	if elide {
		salt++
	}
	o.Seed ^= e.cfg.Seed ^ benchSeed(b.Name, o.Mode) ^ salt<<48
	res, err := harness.NewSupervisor(e.runner, e.cfg.SupervisorOptions()).Run(context.Background(), b, o)
	if err != nil {
		return nil, err
	}
	e.lost = append(e.lost, LostWork(res)...)
	return res, nil
}

// baseProfile returns the noise-free per-iteration base times of one
// invocation (the engine's deterministic warmup shape), cached.
func (e *Engine) baseProfile(b workloads.Benchmark, mode vm.Mode, iterations int) ([]float64, error) {
	key := fmt.Sprintf("%s/%s/%d", b.Name, mode, iterations)
	if p, ok := e.profiles[key]; ok {
		return p, nil
	}
	res, err := e.run(b, harness.Options{Mode: mode, Invocations: 1, Iterations: iterations})
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
// and returns its rendered report, footnoted with the LostWork line of
// every run that lost work.
func (e *Engine) Experiment(id string) (fmt.Stringer, error) {
	e.lost = nil
	out, err := e.experiment(id)
	if err != nil {
		return nil, err
	}
	switch r := out.(type) {
	case *report.Table:
		r.Footnotes = append(r.Footnotes, e.lost...)
	case *report.Figure:
		r.Footnotes = append(r.Footnotes, e.lost...)
	}
	return out, nil
}

func (e *Engine) experiment(id string) (fmt.Stringer, error) {
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
		return e.AblationAACalibration()
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
}

// CompareEngines runs the rigorous methodology on every configured
// benchmark (interpreter as baseline, JIT as treatment) and returns
// per-benchmark speedups plus the geometric mean.
func (e *Engine) CompareEngines() ([]SpeedupResult, float64, error) {
	rig := methodology.Rigorous{Seed: e.cfg.Seed}
	var out []SpeedupResult
	var speedups []float64
	for _, b := range e.cfg.Benchmarks {
		ri, rj, err := e.RunPair(b, e.cfg.Iterations)
		if err != nil {
			return nil, 0, err
		}
		cmp := rig.Compare(ri.Hierarchical(), rj.Hierarchical())
		out = append(out, SpeedupResult{
			Benchmark: b.Name,
			Speedup:   cmp.Speedup,
			CI:        cmp.CI,
			Verdict:   cmp.Verdict,
		})
		speedups = append(speedups, cmp.Speedup)
	}
	return out, stats.GeoMean(speedups), nil
}

// LostWork is the footnote rule for lost work that every experiment and
// pybench -suite share: one line per run whose supervision degraded,
// naming the benchmark and the arm (the mode, then the opt level and VM
// stream when set).
func LostWork(arms ...*harness.Result) []string {
	var notes []string
	for _, r := range arms {
		if sv := r.Supervision; sv != nil && sv.Degraded() {
			arm := fmt.Sprintf("%s/%s", r.Benchmark, r.Mode)
			if r.Opts.Opt != 0 {
				arm += fmt.Sprintf(" -opt %d", r.Opts.Opt)
			}
			if r.Opts.VM != "" {
				arm += " -vm " + r.Opts.VM
			}
			notes = append(notes, arm+": "+sv.Summary())
		}
	}
	return notes
}

// RunPair runs benchmark b's interpreter and JIT arms, one after the
// other, at the configured invocation count and the given iteration count,
// under the configured supervision policy. It is the one code path that
// runs an interp-vs-JIT pair to compare them. Each arm runs at
// Seed ^ benchSeed(name, mode), so each draws its own invocation effects,
// as the two-level random-effects model wants: effects shared by both arms
// would cancel in every ratio and narrow its interval. A failing arm is
// named in the error, and the arms' checksums must agree.
func (e *Engine) RunPair(b workloads.Benchmark, iterations int) (interp, jit *harness.Result, err error) {
	o := harness.Options{Mode: vm.ModeInterp, Invocations: e.cfg.Invocations, Iterations: iterations, Noise: e.cfg.Noise}
	interp, err = e.run(b, o)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %s [interp arm]: %w", b.Name, err)
	}
	o.Mode = vm.ModeJIT
	jit, err = e.run(b, o)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %s [jit arm]: %w", b.Name, err)
	}
	if err := pairChecksumError(b.Name, interp, jit); err != nil {
		return nil, nil, err
	}
	return interp, jit, nil
}

// pairChecksumError validates cross-engine agreement: both arms of a pair
// must produce the same result checksum, or the comparison is measuring
// two different computations.
func pairChecksumError(bench string, interp, jit *harness.Result) error {
	if len(interp.Invocations) == 0 || len(jit.Invocations) == 0 {
		return fmt.Errorf("core: %s: cannot validate checksums without invocations", bench)
	}
	ci := interp.Invocations[0].Checksum
	cj := jit.Invocations[0].Checksum
	if ci != cj {
		return fmt.Errorf("core: engines disagree on %s: interp=%s jit=%s",
			bench, ci, cj)
	}
	return nil
}
