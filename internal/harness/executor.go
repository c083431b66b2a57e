package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/minipy"
	"repro/internal/procexec"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// IsolationOptions configures subprocess worker isolation: every VM run
// of an experiment — its one simulation, and the run of each hang or
// sabotaged attempt — executes in a child process (the `pybench -worker`
// re-exec mode), so a crash, native hang, or runaway allocation takes down
// one attempt, not the campaign. The parent applies the noise. The zero
// value keeps execution in-process.
type IsolationOptions struct {
	// Enabled shells simulations out to a worker child.
	Enabled bool
	// Command is the worker argv. Empty means re-exec the current binary
	// with "-worker" appended — the production configuration.
	Command []string
	// Env entries are appended to each worker's environment.
	Env []string
	// Watchdog is the hard per-request deadline after which a child is
	// SIGKILLed (default 30s). This is the supervisor-side defense that
	// in-VM step/wall budgets cannot provide: it reaps a child that hangs
	// outside the VM's own control flow. A cancelled campaign context
	// kills the child the same way, at once.
	Watchdog time.Duration
}

func (io IsolationOptions) withDefaults() IsolationOptions {
	if io.Watchdog <= 0 {
		io.Watchdog = 30 * time.Second
	}
	return io
}

// command resolves the worker argv, defaulting to self-re-exec.
func (io IsolationOptions) command() ([]string, error) {
	if len(io.Command) > 0 {
		return io.Command, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("resolving own executable for re-exec: %w", err)
	}
	return []string{exe, "-worker"}, nil
}

// invocationExecutor abstracts where a simulation physically runs: in
// this process or in a policed child. The supervisor's retry, noise,
// quarantine, and checkpoint logic is identical either way.
type invocationExecutor interface {
	// simulate runs the VM once (see Runner.simulate), abandoning the run
	// once ctx ends. sab carries injected environment faults.
	simulate(ctx context.Context, b workloads.Benchmark, code *minipy.Code, opts Options,
		sab workerSabotage) (*Invocation, error)
	// describe reports the substrate for Supervision.Isolation.
	describe() string
	// stats returns (kills, restarts) — child deaths observed and fresh
	// children spawned to replace them. Zero for in-process execution.
	stats() (kills, restarts int)
	// close releases the worker child, if any.
	close()
}

// inProcExecutor is the historical path: the simulation runs in this
// process under recover()-based panic isolation. Injected environment
// faults are degraded to their nearest in-process analogue so a fault
// schedule drawn for an isolated run produces the same attempt fates
// without isolation.
type inProcExecutor struct {
	r *Runner
	// note is the Supervision.Isolation label ("in-process", or the
	// fallback explanation when subprocess isolation was requested but
	// unavailable).
	note string
}

func (e *inProcExecutor) simulate(ctx context.Context, _ workloads.Benchmark, code *minipy.Code,
	opts Options, sab workerSabotage) (*Invocation, error) {
	switch {
	case sab.Exit:
		return nil, errors.New("faults: injected worker kill (in-process: attempt aborted)")
	case sab.Stall:
		// Degrade to the hang realization: the VM's own budget guard
		// aborts the attempt, standing in for the watchdog.
		opts.MaxStepsPerInvocation = hangBudgetSteps
	}
	return e.r.simulate(ctx, code, opts)
}

func (e *inProcExecutor) describe() string  { return e.note }
func (e *inProcExecutor) stats() (int, int) { return 0, 0 }
func (e *inProcExecutor) close()            {}

// subprocExecutor runs simulations in one worker child, spawned on first
// use. Any failure poisons the child, and the next request spawns a
// replacement. If spawning ever fails outright — re-exec unavailable,
// binary gone — the executor degrades permanently to in-process execution
// and records why, so a campaign never dies for lack of isolation. A run
// is sequential, so the executor needs no lock.
type subprocExecutor struct {
	r       *Runner
	iso     IsolationOptions
	command []string
	child   *procexec.Client // nil before the first spawn and after a death
	spawned int
	kills   int
	// inproc is set once the executor has fallen back.
	inproc *inProcExecutor
}

func newSubprocExecutor(r *Runner, iso IsolationOptions) (*subprocExecutor, error) {
	cmd, err := iso.command()
	if err != nil {
		return nil, err
	}
	return &subprocExecutor{r: r, iso: iso, command: cmd}, nil
}

func (e *subprocExecutor) describe() string {
	if e.inproc != nil {
		return e.inproc.note
	}
	return "subprocess"
}

// stats counts every spawn after the first as a restart: a child is only
// replaced after it died.
func (e *subprocExecutor) stats() (int, int) { return e.kills, max(e.spawned-1, 0) }

// fallBack flips the executor to in-process execution permanently.
func (e *subprocExecutor) fallBack(reason string) *inProcExecutor {
	e.inproc = &inProcExecutor{r: e.r, note: "in-process (isolation fallback: " + reason + ")"}
	e.r.obs.Trace.Instant(trace.CatSupervisor, "isolation-fallback", "reason", reason)
	e.r.obs.Metrics.Counter(mIsolationFallbacks,
		"campaigns degraded from subprocess to in-process execution").Inc()
	return e.inproc
}

// take returns the live child or spawns a fresh one.
func (e *subprocExecutor) take() (*procexec.Client, error) {
	if e.child != nil {
		return e.child, nil
	}
	c, err := procexec.Start(procexec.Config{
		Command:  e.command,
		Env:      e.iso.Env,
		Watchdog: e.iso.Watchdog,
	})
	if err != nil {
		return nil, err
	}
	e.spawned++
	ev := "worker-spawn"
	if e.spawned > 1 {
		ev = "worker-restart"
	}
	e.r.obs.Trace.Instant(trace.CatSupervisor, ev, "pid", strconv.Itoa(c.Pid()))
	e.r.obs.Metrics.Counter(mWorkerSpawns, "worker children spawned").Inc()
	e.child = c
	return c, nil
}

func (e *subprocExecutor) simulate(ctx context.Context, b workloads.Benchmark, code *minipy.Code,
	opts Options, sab workerSabotage) (*Invocation, error) {
	if e.inproc != nil {
		return e.inproc.simulate(ctx, b, code, opts, sab)
	}
	c, err := e.take()
	if err != nil {
		// Isolation is unavailable; degrade rather than fail the attempt.
		return e.fallBack(err.Error()).simulate(ctx, b, code, opts, sab)
	}
	req, err := json.Marshal(workerRequest{Benchmark: b.Name, Opts: opts, Sabotage: sab})
	if err != nil {
		return nil, fmt.Errorf("encoding worker request: %w", err)
	}
	raw, err := c.Call(ctx, req)
	if err != nil {
		// The client killed and reaped the child (watchdog, cancel or
		// death); it is poisoned, and the next request spawns a new one.
		e.child = nil
		e.kills++
		e.r.obs.Trace.Instant(trace.CatSupervisor, "worker-kill",
			"benchmark", b.Name, "error", err.Error())
		e.r.obs.Metrics.Counter(mWorkerKills,
			"worker children killed by the watchdog or found dead").Inc()
		return nil, err
	}
	var resp workerResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, fmt.Errorf("decoding worker response: %w", err)
	}
	if resp.Error != "" {
		return nil, errors.New(resp.Error)
	}
	if resp.Invocation == nil {
		return nil, errors.New("worker returned neither invocation nor error")
	}
	return resp.Invocation, nil
}

func (e *subprocExecutor) close() {
	if e.child != nil {
		//benchlint:allow uncheckederr — discarding the worker either way
		e.child.Close()
	}
}
