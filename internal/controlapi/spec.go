// Package controlapi is the benchmarking-as-a-service control plane: the
// campaign specification shared by the one-shot CLI and the pybenchd
// daemon, the HTTP/JSON API that accepts campaign submissions, the bounded
// scheduler that runs them on the rigorous harness, the crash-safe job
// ledger, and the SSE event stream that surfaces Observer spans and final
// Kalibera–Jones-ready results to remote clients (DESIGN.md §15).
//
// The package is deliberately split so `pybench -bench` and a campaign
// submitted over HTTP execute the *same* function (Execute) on the same
// internals: the daemon adds queueing, quotas, durability, and streaming
// around it, never a second execution semantics. That is what makes the
// daemon-smoke CI gate meaningful — the two paths must produce
// bit-identical sample sets because they are one path.
package controlapi

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/harness"
	"repro/internal/minipy"
	"repro/internal/noise"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// CampaignSpec is the complete description of one benchmark campaign: the
// benchmark selection, the experiment arms and design, and the
// fault/isolation policy. It is the wire format of POST /api/v1/campaigns
// and the in-process input of the CLI's -bench path, so every knob the
// one-shot run honors is a knob a remote submission can set.
//
// The zero value of every field selects the same default the CLI uses;
// Normalize makes those defaults explicit so a stored spec replays
// identically even if defaults drift later.
type CampaignSpec struct {
	// Benchmarks names the workloads to run, in order. Required.
	Benchmarks []string `json:"benchmarks"`
	// Mode is the engine arm: "interp" (default) or "jit".
	Mode string `json:"mode,omitempty"`
	// Invocations × Iterations is the two-level experiment design
	// (defaults 10 × 30).
	Invocations int `json:"invocations,omitempty"`
	Iterations  int `json:"iterations,omitempty"`
	// Seed drives noise, faults, and bootstrap; default 42.
	Seed uint64 `json:"seed,omitempty"`
	// Noise names the simulated machine: default, quiet, noisy, none.
	Noise string `json:"noise,omitempty"`
	// Opt is the bytecode-optimization level (0..minipy.MaxOptLevel);
	// levels ≥ 1 are a distinct experiment arm (ablation A7).
	Opt int `json:"opt,omitempty"`
	// VM selects the executed stream: "" or "reg" (default), or
	// "reg-elide" (move-elided register stream, ablation A9), which
	// changes the executed stream and so, like Opt, is a distinct arm.
	VM string `json:"vm,omitempty"`
	// Faults is the injected-fault model spec ("", none, light, heavy,
	// chaos, or kind=prob list).
	Faults string `json:"faults,omitempty"`
	// Retries and Quorum are the supervision policy (see harness.Supervisor).
	Retries int `json:"retries,omitempty"`
	Quorum  int `json:"quorum,omitempty"`
	// Isolate shells each arm's VM runs out to a watchdogged worker
	// subprocess; WatchdogMs bounds each request (0 = 30s default).
	Isolate    bool  `json:"isolate,omitempty"`
	WatchdogMs int64 `json:"watchdog_ms,omitempty"`
	// MaxSteps and WallBudgetMs are the PR 1 per-invocation budgets. The
	// daemon clamps both to its per-tenant ceilings (Options.MaxStepBudget
	// and MaxWallBudget), so a submission can tighten its own budget but
	// never exceed the service's.
	MaxSteps     uint64 `json:"max_steps,omitempty"`
	WallBudgetMs int64  `json:"wall_budget_ms,omitempty"`
	// Tenant attributes the campaign for quota accounting. The HTTP layer
	// defaults it from the X-Benchd-Tenant header, then "anonymous".
	Tenant string `json:"tenant,omitempty"`
}

// SpecError marks an invalid campaign specification. The CLI maps it to
// exit 2 (usage) and the HTTP layer to 400 — same taxonomy, two surfaces.
type SpecError struct{ msg string }

func (e *SpecError) Error() string { return e.msg }

func specErrf(format string, args ...any) *SpecError {
	return &SpecError{msg: fmt.Sprintf(format, args...)}
}

// BenchmarkNames lists every runnable workload (canonical suite plus
// extended set) — the inventory quoted in unknown-benchmark errors and
// the CLI's usage text.
func BenchmarkNames() []string {
	var names []string
	for _, b := range workloads.Suite() {
		names = append(names, b.Name)
	}
	for _, b := range workloads.Extended() {
		names = append(names, b.Name)
	}
	return names
}

// NoiseByName resolves the CLI/API noise-model names. It is the single
// mapping both pybench and the daemon use.
func NoiseByName(name string) (noise.Params, error) {
	switch name {
	case "default", "":
		return noise.Default(), nil
	case "quiet":
		return noise.Quiet(), nil
	case "noisy":
		return noise.Noisy(), nil
	case "none":
		return noise.None(), nil
	}
	return noise.Params{}, specErrf("unknown noise model %q", name)
}

// ModeByName resolves the engine-arm name shared by the CLI and the API.
func ModeByName(name string) (vm.Mode, error) {
	switch name {
	case "interp", "":
		return vm.ModeInterp, nil
	case "jit":
		return vm.ModeJIT, nil
	}
	return 0, specErrf("unknown mode %q (want interp or jit)", name)
}

// Normalize returns the spec with every defaulted field made explicit, so
// the stored ledger copy replays bit-identically regardless of future
// default drift and the golden response fixture is byte-stable.
func (s CampaignSpec) Normalize() CampaignSpec {
	if s.Mode == "" {
		s.Mode = "interp"
	}
	if s.Invocations <= 0 {
		s.Invocations = 10
	}
	if s.Iterations <= 0 {
		s.Iterations = 30
	}
	if s.Seed == 0 {
		s.Seed = 42
	}
	if s.Noise == "" {
		s.Noise = "default"
	}
	if s.Tenant == "" {
		s.Tenant = "anonymous"
	}
	return s
}

// Validate checks the spec against the workload inventory and every
// enumerated knob. All failures are SpecErrors (usage taxonomy).
func (s CampaignSpec) Validate() error {
	if len(s.Benchmarks) == 0 {
		return specErrf("campaign names no benchmarks")
	}
	for _, name := range s.Benchmarks {
		if _, ok := workloads.ByName(name); !ok {
			return specErrf("unknown benchmark %q; available: %s (run 'pybench -list' for descriptions)",
				name, strings.Join(BenchmarkNames(), ", "))
		}
	}
	if _, err := ModeByName(s.Mode); err != nil {
		return err
	}
	if _, err := NoiseByName(s.Noise); err != nil {
		return err
	}
	if _, err := faults.Parse(s.Faults); err != nil {
		return specErrf("%v", err)
	}
	if s.Opt < 0 || s.Opt > minipy.MaxOptLevel {
		return specErrf("opt level %d out of range 0..%d", s.Opt, minipy.MaxOptLevel)
	}
	if _, err := vm.ParseVM(s.VM); err != nil {
		return specErrf("%v", err)
	}
	if s.Invocations < 0 || s.Iterations < 0 {
		return specErrf("negative experiment design")
	}
	if err := harness.CheckDesign(s.Invocations, s.Iterations); err != nil {
		return specErrf("%v", err)
	}
	if s.Retries < 0 {
		return specErrf("negative retry budget")
	}
	if s.Quorum < 0 {
		return specErrf("negative quorum")
	}
	return nil
}

// ExecOptions parameterizes Execute with the pieces that belong to the
// caller, not the spec: the runner (so the CLI can attach its observer and
// the daemon its streaming tracer), durability, cancellation, and the
// chaos crash hook.
type ExecOptions struct {
	// Runner executes the campaign (nil = a fresh private runner).
	Runner *harness.Runner
	// CheckpointDir, when set, gives every benchmark × mode arm a
	// crash-safe journal checkpoint there, named by the arm's experiment
	// key, so a killed process resumes the campaign without re-running
	// completed invocations.
	CheckpointDir string
	// Context, when non-nil, cancels the campaign once it ends: the engine
	// stops within one VM poll interval, an isolated child is killed at
	// once, and Execute returns an error wrapping context.Cause. Completed
	// slots stay journaled; the attempt the cancel cut short does not.
	Context context.Context
	// CrashAfter, when > 0, arms harness.SupervisorOptions.CrashAfter on
	// every arm: the supervisor aborts as a kill -9 would after that many
	// slot completions. Chaos-testing hook, never production.
	CrashAfter int
	// OnBenchmark, when non-nil, is called before and after each
	// benchmark runs (done=false, then done=true) — the daemon's progress
	// events come from here.
	OnBenchmark func(index int, name string, done bool)
}

// Execute runs a validated campaign and returns one Result per benchmark,
// in spec order. It is the single execution path shared by `pybench
// -bench` and the daemon: supervision is always on (the zero policy draws
// the same sample set as a bare run), budgets flow from the spec, and the
// checkpoint layout is the harness's one layout, so any surface can resume
// another's interrupted campaign.
func Execute(spec CampaignSpec, eo ExecOptions) ([]*harness.Result, error) {
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	mode, _ := ModeByName(spec.Mode)
	np, _ := NoiseByName(spec.Noise)
	fp, _ := faults.Parse(spec.Faults)
	runner := eo.Runner
	if runner == nil {
		runner = harness.NewRunner()
	}
	if eo.CheckpointDir != "" {
		if err := os.MkdirAll(eo.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("creating checkpoint dir: %w", err)
		}
	}
	sup := harness.NewSupervisor(runner, harness.SupervisorOptions{
		MaxRetries:    spec.Retries,
		Quorum:        spec.Quorum,
		Faults:        fp,
		CheckpointDir: eo.CheckpointDir,
		Isolation: harness.IsolationOptions{
			Enabled:  spec.Isolate,
			Watchdog: time.Duration(spec.WatchdogMs) * time.Millisecond,
		},
		CrashAfter: eo.CrashAfter,
	})
	opts := harness.Options{
		Mode:                  mode,
		Invocations:           spec.Invocations,
		Iterations:            spec.Iterations,
		Seed:                  spec.Seed,
		Noise:                 np,
		Opt:                   spec.Opt,
		VM:                    spec.VM,
		MaxStepsPerInvocation: spec.MaxSteps,
		WallBudget:            time.Duration(spec.WallBudgetMs) * time.Millisecond,
	}
	ctx := eo.Context
	if ctx == nil {
		ctx = context.Background()
	}
	var results []*harness.Result
	for i, name := range spec.Benchmarks {
		if ctx.Err() != nil {
			return results, context.Cause(ctx)
		}
		b, _ := workloads.ByName(name)
		if eo.OnBenchmark != nil {
			eo.OnBenchmark(i, name, false)
		}
		res, err := sup.Run(ctx, b, opts)
		if err != nil {
			if res != nil {
				results = append(results, res)
			}
			return results, fmt.Errorf("campaign benchmark %s: %w", name, err)
		}
		results = append(results, res)
		if eo.OnBenchmark != nil {
			eo.OnBenchmark(i, name, true)
		}
	}
	return results, nil
}
