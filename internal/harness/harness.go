// Package harness runs benchmarking experiments with the paper's rigorous
// design: multiple fresh VM invocations, multiple measured iterations per
// invocation, deterministic seeded noise, and optional hardware-counter
// simulation. The output shape (invocation × iteration matrices) is exactly
// what the statistics layer's two-level analyses consume.
package harness

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/analysis"
	"repro/internal/counters"
	"repro/internal/metrics"
	"repro/internal/minipy"
	"repro/internal/noise"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// Options configures one experiment (one benchmark × one engine).
type Options struct {
	Mode        vm.Mode
	Invocations int
	Iterations  int
	// Seed drives the noise model and any downstream bootstrap. The same
	// seed reproduces the experiment exactly.
	Seed uint64
	// Noise selects the simulated machine; zero value means noiseless.
	Noise noise.Params
	// Cost overrides the engine cost model (zero value = defaults).
	Cost vm.CostParams
	// WithCounters attaches the hardware-counter model to each invocation.
	WithCounters bool
	// FreqGHz converts simulated cycles to seconds. Defaults to 3.0.
	FreqGHz float64
	// MaxStepsPerInvocation bounds runaway workloads (0 = default 2^32).
	MaxStepsPerInvocation uint64
	// WallBudget bounds one invocation's real elapsed time (0 = none).
	// Unlike the step budget it depends on the host clock, so it exists
	// for supervision (kill a hung invocation), not for measurement.
	WallBudget time.Duration `json:",omitempty"`
	// TargetRelHalfWidth, when > 0, turns the design adaptive (the
	// Kalibera–Jones "reasonable time" design, DESIGN.md §5): Invocations
	// becomes a cap, and the supervisor schedules slots in batches of 5,
	// stopping after the first batch whose 95% grand-mean interval has a
	// relative half-width at or below the target.
	TargetRelHalfWidth float64 `json:",omitempty"`
	// Opt is the bytecode-optimization level, 0..minipy.MaxOptLevel (see
	// minipy.Optimize). 0 runs the compiler's output unchanged. Levels >= 1
	// rewrite the simulated opcode stream, so optimized runs are a distinct
	// experiment arm — never comparable sample-for-sample with level 0.
	Opt int `json:",omitempty"`
	// VM selects the executed stream (see vm.ParseVM): "" or "reg" for the
	// default register stream, or "reg-elide" for the move-elided stream
	// of ablation A9, which executes fewer simulated ops and is therefore
	// a distinct experiment arm.
	VM string `json:",omitempty"`
}

func (o Options) withDefaults() Options {
	if o.Invocations <= 0 {
		o.Invocations = 10
	}
	if o.Iterations <= 0 {
		o.Iterations = 30
	}
	if o.FreqGHz <= 0 {
		o.FreqGHz = 3.0
	}
	if o.MaxStepsPerInvocation == 0 {
		o.MaxStepsPerInvocation = defaultStepBudget
	}
	return o
}

// defaultStepBudget is the runaway-workload backstop applied when the user
// does not set MaxStepsPerInvocation.
const defaultStepBudget = 1 << 32

// tightenBudget lowers the default step budget to the certificate's static
// worst case when the interprocedural analysis proved one (DESIGN.md §14):
// module import plus Iterations calls of run(), doubled for slack and
// padded so a tiny workload never sits on the edge of its own budget. A
// user-set budget is never overridden, and an unbounded certificate leaves
// the backstop alone. The result is that a workload whose loops the
// analysis can count trips for aborts in thousands of steps — not 2^32 —
// if a regression makes it run long. Call after withDefaults.
func tightenBudget(opts Options, summary *analysis.Summary) Options {
	if opts.MaxStepsPerInvocation != defaultStepBudget ||
		summary == nil || summary.Certificate == nil {
		return opts
	}
	sb := summary.Certificate.StepBound
	if !sb.Bounded || sb.ModuleSteps < 0 || sb.RunSteps < 0 {
		return opts
	}
	iters := uint64(opts.Iterations)
	if sb.RunSteps > 0 && iters > (1<<62)/uint64(sb.RunSteps) {
		return opts // static bound too large to be a useful budget
	}
	bound := 2*(uint64(sb.ModuleSteps)+iters*uint64(sb.RunSteps)) + 4096
	if bound < opts.MaxStepsPerInvocation {
		opts.MaxStepsPerInvocation = bound
	}
	return opts
}

// Invocation is the measurement record of one fresh VM process: the
// simulation's counts, timed through one invocation's noise stream.
type Invocation struct {
	// TimesSec[j] is the measured (noise-perturbed) wall time of iteration
	// j; in the noise-free record simulate returns, it is Cycles[j] at
	// Options.FreqGHz.
	TimesSec []float64
	// Cycles[j] is the raw simulated cycle count of iteration j.
	Cycles []uint64
	// Steps[j] is the executed bytecode op count of iteration j.
	Steps []uint64
	// Counters is the end-of-invocation hardware-counter snapshot
	// (nil unless Options.WithCounters).
	Counters *counters.Snapshot
	// Mix is the instruction-mix breakdown (zero unless WithCounters).
	Mix counters.InstructionMix
	// JITTraces/JITBridges/GuardFails summarize JIT activity (zero for the
	// interpreter).
	JITTraces  int
	JITBridges int
	GuardFails int
	// Checksum is the repr() of run()'s return value from the last
	// iteration, for cross-engine validation.
	Checksum string
}

// Result is a complete experiment: all invocations of one benchmark under
// one engine.
type Result struct {
	Benchmark   string
	Mode        vm.Mode
	Opts        Options
	Invocations []Invocation
	// Supervision records fault-tolerance accounting (retries, drops,
	// quarantined samples) when the experiment ran under a Supervisor;
	// nil for Runner.Run results.
	Supervision *Supervision `json:",omitempty"`
	// Metrics is the harness self-telemetry snapshot (timer calibration,
	// GC interference, retry/cache activity) taken when the experiment
	// finished; nil unless an Observer with a metrics registry was
	// attached.
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
	// Analysis is the static-analysis digest of the workload (CFG size,
	// dead code, type-inference coverage, determinism certificate),
	// computed once per benchmark at compile time. It rides with every
	// result so an archived report carries the evidence that its workload
	// was deterministic and well-formed.
	Analysis *analysis.Summary `json:"analysis,omitempty"`
}

// Hierarchical converts the measured times into the two-level sample shape
// the statistics layer uses.
func (r *Result) Hierarchical() stats.HierarchicalSample {
	times := make([][]float64, len(r.Invocations))
	for i, inv := range r.Invocations {
		times[i] = inv.TimesSec
	}
	return stats.HierarchicalSample{Times: times}
}

// StoppingCI is the interval the adaptive stopping rule reads: the
// Kalibera–Jones grand-mean interval over the surviving invocations at the
// rule's fixed confidence.
func (r *Result) StoppingCI() stats.Interval {
	return stats.KaliberaMeanCI(r.Hierarchical(), adaptiveConfidence)
}

// MeetsTarget is the stopping rule's verdict: StoppingCI's relative
// half-width is at or below Opts.TargetRelHalfWidth. Fewer than two
// invocations never meet it.
func (r *Result) MeetsTarget() bool {
	return r.StoppingCI().RelHalfWidth() <= r.Opts.TargetRelHalfWidth
}

// HierarchicalFrom drops the first skip iterations of every invocation
// (manual warmup exclusion).
func (r *Result) HierarchicalFrom(skip int) stats.HierarchicalSample {
	times := make([][]float64, len(r.Invocations))
	for i, inv := range r.Invocations {
		if skip >= len(inv.TimesSec) {
			times[i] = nil
			continue
		}
		times[i] = inv.TimesSec[skip:]
	}
	return stats.HierarchicalSample{Times: times}
}

// SameSamples is the sample-set contract: got carries want's invocations
// in the same order, with identical times, cycles, steps and checksums.
// Isolated, resumed, chaos-soaked and daemon runs meet it against the
// in-process run at equal seeds. The error names the first invocation and
// field that differ.
func SameSamples(want, got *Result) error {
	if len(want.Invocations) != len(got.Invocations) {
		return fmt.Errorf("invocation counts differ: %d vs %d",
			len(want.Invocations), len(got.Invocations))
	}
	for i := range want.Invocations {
		w, g := &want.Invocations[i], &got.Invocations[i]
		if err := sameSeries(w.TimesSec, g.TimesSec); err != nil {
			return fmt.Errorf("invocation %d times differ: %w", i, err)
		}
		if err := sameSeries(w.Cycles, g.Cycles); err != nil {
			return fmt.Errorf("invocation %d cycles differ: %w", i, err)
		}
		if err := sameSeries(w.Steps, g.Steps); err != nil {
			return fmt.Errorf("invocation %d steps differ: %w", i, err)
		}
		if w.Checksum != g.Checksum {
			return fmt.Errorf("invocation %d checksums differ: %s vs %s", i, w.Checksum, g.Checksum)
		}
	}
	return nil
}

// sameSeries compares two per-iteration series element by element.
func sameSeries[T float64 | uint64](a, b []T) error {
	if len(a) != len(b) {
		return fmt.Errorf("lengths %d vs %d", len(a), len(b))
	}
	for j := range a {
		if a[j] != b[j] {
			return fmt.Errorf("iteration %d: %v vs %v", j, a[j], b[j])
		}
	}
	return nil
}

// Runner executes experiments. Compiled workloads are cached in a
// concurrency-safe workloads.CodeCache, so repeated experiments on the same
// benchmark skip the front end and concurrent experiments (the daemon's
// campaigns) can share one cache handle without racing the front end.
type Runner struct {
	cache *workloads.CodeCache
	// obs holds the optional observability sinks (see observe.go). The
	// zero value is free: disabled sinks cost one nil check each.
	obs Observer
}

// NewRunner returns an empty runner.
func NewRunner() *Runner {
	return &Runner{cache: workloads.NewCodeCache()}
}

// Cache exposes the runner's compiled-code cache.
func (r *Runner) Cache() *workloads.CodeCache { return r.cache }

func (r *Runner) compiled(b workloads.Benchmark, opt int) (*minipy.Code, *analysis.Summary, error) {
	e, hit, err := r.cache.GetOpt(b, opt)
	if err != nil {
		return nil, nil, err
	}
	if hit {
		r.obs.Metrics.Counter(mCacheHits, "compiled-code cache hits").Inc()
	} else {
		r.obs.Metrics.Counter(mCacheMisses, "compiled-code cache misses (front-end runs)").Inc()
	}
	return e.Code, e.Analysis, nil
}

// Run executes the full experiment for one benchmark: the supervisor's
// engine under the zero policy (no faults, no retries, no checkpoint,
// every invocation must succeed) and a context that cannot be
// cancelled. The result carries no Supervision block; a failure names the
// lowest failing invocation and its cause.
func (r *Runner) Run(b workloads.Benchmark, opts Options) (*Result, error) {
	res, err := NewSupervisor(r, SupervisorOptions{}).Run(context.Background(), b, opts)
	if res == nil {
		return nil, err
	}
	if f := res.Supervision.firstFailure(); f != "" {
		return nil, fmt.Errorf("harness: %s %s", b.Name, f)
	}
	res.Supervision = nil
	return res, err
}

// validateChecksum checks an invocation's result checksum against the
// benchmark's declared expectation (skipped when none is declared).
func validateChecksum(b workloads.Benchmark, inv *Invocation) error {
	if b.Checksum != "" && inv.Checksum != b.Checksum {
		return fmt.Errorf("checksum mismatch: got %s, want %s", inv.Checksum, b.Checksum)
	}
	return nil
}

// simulate runs one fresh VM process: module import (setup), then
// opts.Iterations calls of run(). It returns the noise-free Invocation:
// TimesSec holds each iteration's cycles at opts.FreqGHz, unperturbed, and
// the cycles, steps, counters, mix, JIT stats and checksum are final. It
// is a pure function of the code, Mode, VM, Opt, Cost, WithCounters,
// Iterations and the step budget, so an experiment simulates once and
// every slot replays the run through measure. The VM aborts once ctx
// ends, or once the wall budget (a deadline on a child of ctx) passes.
func (r *Runner) simulate(ctx context.Context, code *minipy.Code, opts Options) (*Invocation, error) {
	tr := r.obs.Trace
	var probe vm.Probe
	var model *counters.Model
	if opts.WithCounters {
		model = counters.NewModel()
		probe = model
	}
	if opts.WallBudget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, opts.WallBudget,
			fmt.Errorf("wall budget %s exceeded", opts.WallBudget))
		defer cancel()
	}
	regElide, err := vm.ParseVM(opts.VM)
	if err != nil {
		return nil, err
	}
	engine := vm.New(vm.Config{
		Mode:     opts.Mode,
		RegElide: regElide,
		Cost:     opts.Cost,
		Probe:    probe,
		MaxSteps: opts.MaxStepsPerInvocation,
		Context:  ctx,
	})
	setupSpan := tr.Begin(trace.CatPhase, "module-setup")
	_, err = engine.RunModule(code)
	setupSpan.End()
	if err != nil {
		return nil, fmt.Errorf("module setup: %w", err)
	}
	inv := &Invocation{
		TimesSec: make([]float64, 0, opts.Iterations),
		Cycles:   make([]uint64, 0, opts.Iterations),
		Steps:    make([]uint64, 0, opts.Iterations),
	}
	hz := opts.FreqGHz * 1e9
	var last minipy.Value
	for j := 0; j < opts.Iterations; j++ {
		// Span bookkeeping (including the name formatting) is gated on a
		// live tracer so the disabled path adds zero allocations per
		// iteration — the overhead contract of DESIGN.md §8.
		var iterSpan, callSpan trace.Span
		if tr != nil {
			iterSpan = tr.Begin(trace.CatIteration, fmt.Sprintf("iteration %d", j))
		}
		before := engine.CountersSnapshot()
		if tr != nil {
			callSpan = tr.Begin(trace.CatPhase, "run()")
		}
		v, err := engine.CallGlobal("run")
		callSpan.End()
		if err != nil {
			iterSpan.End()
			return nil, fmt.Errorf("run() iteration %d: %w", j, err)
		}
		last = v
		delta := engine.CountersSnapshot().Sub(before)
		inv.TimesSec = append(inv.TimesSec, float64(delta.Cycles)/hz)
		inv.Cycles = append(inv.Cycles, delta.Cycles)
		inv.Steps = append(inv.Steps, delta.Steps)
		if tr != nil {
			iterSpan.SetArg("cycles", fmt.Sprint(delta.Cycles))
		}
		iterSpan.End()
	}
	if last != nil {
		inv.Checksum = last.Repr()
	}
	if model != nil {
		snap := model.Snapshot()
		inv.Counters = &snap
		inv.Mix = model.Mix()
	}
	inv.JITTraces, inv.JITBridges, inv.GuardFails = engine.JITStats()
	return inv, nil
}

// measure is the step every slot passes through, the one that simulated
// included: it times the simulation's iterations through the slot's own
// noise stream (noiseIdx, retry salt included) and returns the slot's own
// copy of the record, so a fault that edits it never reaches sim.
func (r *Runner) measure(sim *Invocation, opts Options, noiseIdx int) *Invocation {
	span := r.obs.Trace.Begin(trace.CatPhase, "replay")
	defer span.End()
	inv := *sim
	inv.TimesSec = noise.Perturb(opts.Noise, opts.Seed, noiseIdx, sim.TimesSec, len(sim.TimesSec))
	inv.Cycles = slices.Clone(sim.Cycles)
	inv.Steps = slices.Clone(sim.Steps)
	if sim.Counters != nil {
		c := *sim.Counters
		inv.Counters = &c
	}
	r.obs.Metrics.Counter(mInvocations, "invocations measured").Inc()
	r.obs.Metrics.Counter(mIterations, "measured iterations completed").
		Add(uint64(len(inv.TimesSec)))
	return &inv
}
