package harness

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/analysis"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/minipy"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/wal"
	"repro/internal/workloads"
)

// ErrQuorum marks the degraded-below-quorum failure: the campaign ran to
// completion but too few invocations survived. The CLI taxonomy maps it to
// exit code 4 (degraded), distinct from infrastructure failures.
var ErrQuorum = errors.New("quorum not met")

// ErrCrashPoint is returned when a deliberate crash point (see
// SupervisorOptions.CrashAfter) fired. The campaign's journal is left
// exactly as a kill -9 at that moment would leave it; a rerun with the
// same checkpoint directory resumes from it.
var ErrCrashPoint = errors.New("deliberate crash point reached")

// InvocationStatus classifies how one supervised invocation ended.
type InvocationStatus string

// Invocation outcomes.
const (
	// StatusClean means the invocation succeeded on its first attempt.
	StatusClean InvocationStatus = "clean"
	// StatusRecovered means the invocation succeeded after one or more
	// retries.
	StatusRecovered InvocationStatus = "recovered"
	// StatusDropped means every attempt failed; the invocation contributes
	// no samples and shrinks the experiment's effective N.
	StatusDropped InvocationStatus = "dropped"
)

// AttemptRecord documents one attempt at one invocation.
type AttemptRecord struct {
	Attempt int
	// Fault names the injected fault kind, "" when none was injected.
	Fault string `json:",omitempty"`
	// Error is the failure description, "" when the attempt succeeded.
	Error string `json:",omitempty"`
	// BackoffMs is the deterministic backoff scheduled before the next
	// attempt. It is recorded, never slept: simulated experiments stay
	// instant and deterministic.
	BackoffMs int64 `json:",omitempty"`
}

// InvocationLog is the supervised history of one invocation slot.
type InvocationLog struct {
	Index    int
	Status   InvocationStatus
	Attempts []AttemptRecord
}

// Supervision is the fault-tolerance accounting of one supervised
// experiment. It rides on Result so both the JSON export and the report
// layer can surface exactly how degraded a run was.
type Supervision struct {
	// Planned is the scheduled invocation count N: the requested count, or
	// under the adaptive stopping rule the slots the rule scheduled.
	Planned int
	// Quorum is the minimum successful invocations required (K of N).
	Quorum int
	// MaxRetries is the per-invocation retry budget.
	MaxRetries int
	// Faults is the injected fault model ("none" when disabled).
	Faults faults.Params
	// FaultSeed drives the deterministic fault schedule.
	FaultSeed uint64
	// Clean counts invocations that succeeded first try.
	Clean int
	// Recovered counts invocations that succeeded after retries.
	Recovered int
	// Dropped counts invocations whose every attempt failed.
	Dropped int
	// Attempts is the total attempt count across all invocations.
	Attempts int
	// Retries is the total retry count (attempts beyond each first).
	Retries int
	// InjectedFaults counts the injected faults: attempts that had one, and
	// checkpoint journal writes a storage kind (torn, badrecord, enospc)
	// tore, corrupted or refused.
	InjectedFaults int
	// QuarantinedSamples counts corrupted (NaN/inf/non-positive) samples
	// detected and discarded together with their attempt.
	QuarantinedSamples int
	// ResumedFrom is the invocation index execution resumed at after a
	// checkpoint restore (0 = fresh run).
	ResumedFrom int `json:",omitempty"`
	// Isolation records the execution substrate: "subprocess" when worker
	// children executed the invocations, "in-process" otherwise, or an
	// "in-process (isolation fallback: ...)" note when subprocess
	// isolation was requested but unavailable.
	Isolation string `json:",omitempty"`
	// WorkerKills counts child processes that died mid-attempt — watchdog
	// SIGKILLs of hung children plus crashes (injected or genuine).
	WorkerKills int `json:",omitempty"`
	// WorkerRestarts counts replacement children spawned after a death.
	WorkerRestarts int `json:",omitempty"`
	// CheckpointErrors counts failed checkpoint/journal writes. The
	// campaign keeps running — losing durability must not lose the
	// in-flight work — but resume coverage is degraded and the run says so.
	CheckpointErrors int `json:",omitempty"`
	// CheckpointError is the first failure's description.
	CheckpointError string `json:",omitempty"`
	// Journal is the checkpoint journal's recovery report when the run
	// checkpointed: how many records were intact, and whether a torn tail
	// or corruption was repaired.
	Journal *wal.RecoveryReport `json:",omitempty"`
	// Log is the per-invocation attempt history.
	Log []InvocationLog
}

// EffectiveN is the number of invocations that contributed samples.
func (s *Supervision) EffectiveN() int { return s.Clean + s.Recovered }

// Degraded reports whether the experiment lost any work or durability:
// dropped invocations, retried invocations, quarantined samples, failed
// checkpoint writes, or journal damage repaired on resume.
func (s *Supervision) Degraded() bool {
	return s.Dropped > 0 || s.Recovered > 0 || s.QuarantinedSamples > 0 ||
		s.CheckpointErrors > 0 || (s.Journal != nil && !s.Journal.Clean())
}

// firstFailure names the lowest-index dropped invocation and its last
// attempt's error ("" when nothing was dropped).
func (s *Supervision) firstFailure() string {
	for _, lg := range s.Log {
		if lg.Status == StatusDropped {
			return fmt.Sprintf("invocation %d: %s", lg.Index, lg.Attempts[len(lg.Attempts)-1].Error)
		}
	}
	return ""
}

// Summary renders a one-line human-readable account, suitable as a table
// footnote.
func (s *Supervision) Summary() string {
	msg := fmt.Sprintf(
		"supervision: effective N %d/%d (%d clean, %d recovered, %d dropped); %d attempts, %d retries, %d injected faults, %d quarantined samples; quorum %d",
		s.EffectiveN(), s.Planned, s.Clean, s.Recovered, s.Dropped,
		s.Attempts, s.Retries, s.InjectedFaults, s.QuarantinedSamples, s.Quorum)
	if s.ResumedFrom > 0 {
		msg += fmt.Sprintf("; resumed at invocation %d", s.ResumedFrom)
	}
	if s.Isolation != "" && s.Isolation != "in-process" {
		msg += "; isolation: " + s.Isolation
		if s.WorkerKills > 0 || s.WorkerRestarts > 0 {
			msg += fmt.Sprintf(" (%d worker kill(s), %d restart(s))", s.WorkerKills, s.WorkerRestarts)
		}
	}
	if s.CheckpointErrors > 0 {
		msg += fmt.Sprintf("; %d checkpoint write(s) failed (%s)", s.CheckpointErrors, s.CheckpointError)
	}
	if s.Journal != nil && !s.Journal.Clean() {
		msg += "; " + s.Journal.String()
	}
	return msg
}

// SupervisorOptions configures the fault-tolerant execution policy.
type SupervisorOptions struct {
	// MaxRetries is the retry budget per invocation (0 = no retries).
	MaxRetries int
	// Quorum is the minimum successful invocations for the experiment to
	// succeed. 0 (or > N) means all N must succeed.
	Quorum int
	// Faults is the injected fault model (zero value = none). Real-world
	// failures (panics, budget blowouts, bad samples) are handled the same
	// way whether or not injection is on. Its storage kinds act on the
	// checkpoint journal's writes, so they need a CheckpointDir.
	Faults faults.Params
	// FaultSeed seeds the fault schedule; 0 means use Options.Seed, so a
	// fault run is reproducible from the experiment seed alone.
	FaultSeed uint64
	// CheckpointDir, when set, is the existing directory where every
	// completed invocation is journaled, so an interrupted experiment
	// resumes without re-running completed work. Each experiment key (see
	// checkpointKey) has its own write-ahead journal, named by the key's
	// digest, so any mix of surfaces (pybench -bench, -exp, -suite, the
	// daemon) can share one directory, and a run resumes the journal its
	// key names, whichever surface wrote it.
	CheckpointDir string
	// Isolation shells the experiment's VM runs out to a watchdogged
	// worker child process (see IsolationOptions).
	Isolation IsolationOptions
	// CrashAfter, when > 0, makes the supervisor return ErrCrashPoint
	// after that many slot completions — a deliberate crash point for
	// chaos testing resume-from-journal behaviour. 0 disables it.
	CrashAfter int
}

func (so SupervisorOptions) withDefaults() SupervisorOptions {
	if so.MaxRetries < 0 {
		so.MaxRetries = 0
	}
	so.Isolation = so.Isolation.withDefaults()
	return so
}

// The retry backoff envelope: attempt k schedules backoffBase<<k, capped at
// backoffMax.
const (
	backoffBase = 100 * time.Millisecond
	backoffMax  = 5 * time.Second
)

// backoffSalt offsets the backoff jitter stream from the fault-schedule
// stream sharing the same seed.
const backoffSalt = 0xB0FF

// jitterBackoff computes the deterministic jittered backoff before the
// next attempt: the exponential envelope, scaled into [1/2, 1] of itself
// by a uniform draw keyed on (seed, invocation, attempt) — "equal jitter".
// Retries across invocations desynchronize (no thundering herd against a
// contended host) while every schedule stays a replayable pure function of
// the campaign seed.
func jitterBackoff(seed uint64, invIdx, attempt int) time.Duration {
	d := backoffBase
	for k := 0; k < attempt && d < backoffMax; k++ {
		d <<= 1
	}
	if d > backoffMax {
		d = backoffMax
	}
	id := uint64(invIdx)*0x1000003 + uint64(attempt) + backoffSalt
	u := stats.NewRNG(seed).Split(id).Float64()
	return time.Duration(float64(d) * (0.5 + 0.5*u))
}

// Supervisor wraps a Runner with crash isolation, per-invocation budgets,
// bounded retry, a quorum policy, and checkpoint/resume.
// Its engine is the only code that schedules invocations: Runner.Run is the
// engine under the zero SupervisorOptions, so the two produce identical
// sample sets (the results differ by the Supervision block) — supervision
// is free until something goes wrong.
type Supervisor struct {
	r    *Runner
	opts SupervisorOptions
}

// NewSupervisor wraps a runner with the given policy.
func NewSupervisor(r *Runner, opts SupervisorOptions) *Supervisor {
	return &Supervisor{r: r, opts: opts.withDefaults()}
}

// newExecutor picks the execution substrate for one run. A failure to set
// up subprocess isolation degrades to in-process execution with the reason
// recorded — lack of isolation must never kill a campaign.
func (s *Supervisor) newExecutor() invocationExecutor {
	if !s.opts.Isolation.Enabled {
		return &inProcExecutor{r: s.r, note: "in-process"}
	}
	exec, err := newSubprocExecutor(s.r, s.opts.Isolation)
	if err != nil {
		s.r.obs.Trace.Instant(trace.CatSupervisor, "isolation-fallback", "reason", err.Error())
		s.r.obs.Metrics.Counter(mIsolationFallbacks,
			"campaigns degraded from subprocess to in-process execution").Inc()
		return &inProcExecutor{r: s.r,
			note: "in-process (isolation fallback: " + err.Error() + ")"}
	}
	return exec
}

// experimentSalt derives a per-(benchmark, mode) fault-seed offset (FNV-1a
// over the name, mixed with the mode).
func experimentSalt(name string, mode vm.Mode) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h ^ uint64(mode+1)<<40
}

// retrySalt offsets the noise-stream invocation id on retries so a fresh
// attempt draws fresh noise (a real re-invocation would), without
// colliding with any first-attempt index.
const retrySalt = 1 << 20

// hangBudgetSteps is the tiny step budget used to realize an injected
// hang: the VM's own budget guard aborts the invocation, exercising the
// exact path a real runaway workload takes.
const hangBudgetSteps = 1

// The adaptive stopping rule's fixed design (Options.TargetRelHalfWidth):
// slots are scheduled adaptiveBatch at a time, and the rule reads the
// adaptiveConfidence Kalibera–Jones grand-mean interval.
const (
	adaptiveBatch      = 5
	adaptiveConfidence = 0.95
)

// Run executes the experiment under supervision. It is the invocation
// engine behind every run path: it drives the pending invocation slots in
// order, each through its retry budget, journals every completed slot, and
// merges the slots in canonical invocation order. The VM runs once per
// Run: the first attempt that needs the simulation runs it, and every
// slot replays that run through its own noise stream (see attempt). So
// every slot's fate is a pure function of (seed, invocation id, attempt),
// and a resumed run draws the same samples as an uninterrupted one.
//
// Under Options.TargetRelHalfWidth the slots are scheduled in batches and
// the stopping rule is checked between batches. Once ctx ends, Run starts
// no more slots or retries, records and journals no attempt the cancel cut
// short, and returns an error wrapping context.Cause(ctx).
func (s *Supervisor) Run(ctx context.Context, b workloads.Benchmark, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := CheckDesign(opts.Invocations, opts.Iterations); err != nil {
		return nil, fmt.Errorf("harness: %s: %w", b.Name, err)
	}
	if !(opts.TargetRelHalfWidth >= 0) {
		return nil, fmt.Errorf("harness: %s: target half-width %v: want a positive fraction, or 0 for a fixed design",
			b.Name, opts.TargetRelHalfWidth)
	}
	if st := s.opts.Faults.Storage(); st.Enabled() && s.opts.CheckpointDir == "" {
		return nil, fmt.Errorf("harness: %s: faults %s act on the checkpoint journal, and the run has none",
			b.Name, st)
	}
	code, summary, err := s.r.compiled(b, opts.Opt)
	if err != nil {
		return nil, fmt.Errorf("harness: %s: %w", b.Name, err)
	}
	opts = tightenBudget(opts, summary)
	faultSeed := s.opts.FaultSeed
	if faultSeed == 0 {
		faultSeed = opts.Seed
	}
	// Salt the schedule per experiment so benchmarks and arms sharing one
	// campaign seed still draw independent fault fates (the same
	// discipline benchSeed applies to noise streams).
	faultSeed ^= experimentSalt(b.Name, opts.Mode)
	// The injector draws only the invocation-level kinds; the storage kinds
	// (torn/badrecord/enospc) are realized per journal write by the ChaosFS
	// the journal is written through (see below), not per invocation.
	inj := faults.NewInjector(s.opts.Faults.VM(), faultSeed)

	// The execution substrate: in-process, or a watchdogged worker child
	// when isolation is on (with permanent in-process fallback when
	// re-exec is unavailable). The sample set is bit-identical either
	// way — the simulation is a pure function of the experiment, and the
	// noise is applied here — so the choice never enters the checkpoint
	// key.
	exec := s.newExecutor()
	defer exec.close()

	obs := s.r.obs
	benchSpan := obs.Trace.Begin(trace.CatBenchmark, b.Name+"/"+opts.Mode.String(),
		"benchmark", b.Name, "mode", opts.Mode.String())
	defer benchSpan.End()

	slots := make([]*slotRecord, opts.Invocations)
	resumed := 0
	var ckpt *checkpoint
	// The journal is written through a ChaosFS, which realizes the storage
	// kinds on its writes under the fault seed and passes every write
	// through when there are none. noteStorageFaults reports the faults it
	// has injected since the last call; storageFaults counts them.
	var storage *faults.ChaosFS
	storageFaults := 0
	noteStorageFaults := func() {
		injected := storage.Injected()
		for _, f := range injected[storageFaults:] {
			obs.Trace.Instant(trace.CatSupervisor, "fault-injected",
				"kind", f.Kind, "write", strconv.FormatUint(f.Write, 10), "detail", f.Detail)
			obs.Metrics.Counter(mFaultsInjected, "faults injected into attempts and journal writes").Inc()
		}
		storageFaults = len(injected)
	}
	if s.opts.CheckpointDir != "" {
		storage = faults.NewChaosFS(wal.OSFS{}, s.opts.Faults, faultSeed)
		var key string
		key, err = checkpointKey(b, opts, s.opts, faultSeed)
		if err == nil {
			ckpt, err = openCheckpoint(storage, s.opts.CheckpointDir, key)
			noteStorageFaults()
		}
		if err != nil {
			return nil, fmt.Errorf("harness: %s: %w", b.Name, err)
		}
		//benchlint:allow uncheckederr — every slot append was already fsynced
		defer ckpt.jn.Close()
		// Recovery repairs torn tails and corrupt records, never silently
		// trusts them, and the result carries the report.
		if !ckpt.report.Clean() {
			obs.Trace.Instant(trace.CatSupervisor, "journal-recovered",
				"benchmark", b.Name, "report", ckpt.report.String())
			obs.Metrics.Counter(mJournalRecoveries,
				"journals repaired (torn tail or corrupt records) on open").Inc()
		}
		for idx, slot := range ckpt.slots {
			if idx < 0 || idx >= opts.Invocations {
				continue
			}
			slot := slot
			slots[idx] = &slot
			resumed++
		}
		if resumed > 0 {
			obs.Trace.Instant(trace.CatSupervisor, "checkpoint-resume",
				"benchmark", b.Name, "completed", strconv.Itoa(resumed))
			obs.Metrics.Counter(mResumes, "experiments resumed from a checkpoint").Inc()
		}
	}

	// sim is the experiment's one simulation, kept for this Run only: the
	// first attempt that needs it fills it (see attempt).
	var sim *Invocation

	// runSlot supervises one pending slot and journals it. Checkpoint
	// failures (ENOSPC, injected storage faults) are survived, not fatal:
	// losing durability must not lose the in-flight work — the run
	// degrades and says so in Supervision.
	var ckptErrs, completed int
	var ckptFirstErr string
	crashed := func() bool { return s.opts.CrashAfter > 0 && completed >= s.opts.CrashAfter }
	runSlot := func(idx int) {
		slot, ok := s.superviseOne(ctx, exec, b, code, opts, idx, inj, &sim)
		if !ok {
			return // cut short by the cancel: neither recorded nor journaled
		}
		if slot.Log.Status == StatusDropped {
			obs.Trace.Instant(trace.CatSupervisor, "invocation-dropped",
				"benchmark", b.Name, "invocation", strconv.Itoa(idx))
			obs.Metrics.Counter(mDropped, "invocations dropped after exhausting retries").Inc()
		}
		slots[idx] = &slot
		completed++
		if ckpt == nil {
			return
		}
		err := ckpt.append(slot)
		noteStorageFaults()
		if err != nil {
			ckptErrs++
			if ckptFirstErr == "" {
				ckptFirstErr = err.Error()
			}
			obs.Trace.Instant(trace.CatSupervisor, "checkpoint-error",
				"invocation", strconv.Itoa(idx), "error", err.Error())
			obs.Metrics.Counter(mCheckpointErrors,
				"checkpoint/journal writes that failed (run continued)").Inc()
			return
		}
		obs.Trace.Instant(trace.CatSupervisor, "checkpoint-save",
			"invocation", strconv.Itoa(idx))
		obs.Metrics.Counter(mCheckpointSaves, "checkpoint snapshots written").Inc()
	}

	// Schedule the slots: all at once, or adaptiveBatch at a time under
	// the stopping rule. planned counts the slots scheduled so far.
	batch := opts.Invocations
	if opts.TargetRelHalfWidth > 0 {
		batch = adaptiveBatch
	}
	planned := 0
	for planned < opts.Invocations && !crashed() && ctx.Err() == nil {
		end := min(planned+batch, opts.Invocations)
		for idx := planned; idx < end && !crashed(); idx++ {
			if slots[idx] == nil {
				runSlot(idx)
			}
		}
		planned = end
		if opts.TargetRelHalfWidth > 0 && converged(slots[:planned], opts) {
			break
		}
	}
	if crashed() {
		// Stop abruptly: no cleanup beyond what a kill -9 would perform.
		// The journal on disk is the only survivor.
		return nil, fmt.Errorf("harness: %s/%s: %w after %d slot completion(s)",
			b.Name, opts.Mode, ErrCrashPoint, s.opts.CrashAfter)
	}
	if ctx.Err() != nil {
		// Completed slots are journaled; the cut-short attempt is not.
		return nil, fmt.Errorf("harness: %s/%s: %w", b.Name, opts.Mode, context.Cause(ctx))
	}

	quorum := s.opts.Quorum
	if quorum <= 0 || quorum > planned {
		quorum = planned
	}
	res := assembleSupervised(b, opts, summary, s.opts, faultSeed, quorum, slots[:planned], resumed)

	sup := res.Supervision
	sup.Isolation = exec.describe()
	sup.WorkerKills, sup.WorkerRestarts = exec.stats()
	sup.CheckpointErrors = ckptErrs
	sup.CheckpointError = ckptFirstErr
	sup.InjectedFaults += storageFaults
	if ckpt != nil {
		sup.Journal = &ckpt.report
	}
	s.r.snapshotMetrics(res)
	if sup.EffectiveN() < quorum {
		// The partial result is returned alongside the error so callers
		// can still report *how* the experiment degraded.
		return res, fmt.Errorf(
			"harness: %s/%s: %w: %d of %d invocations succeeded (need %d; %d dropped after %d retries); %s",
			b.Name, opts.Mode, ErrQuorum, sup.EffectiveN(), sup.Planned, quorum, sup.Dropped, sup.Retries,
			sup.firstFailure())
	}
	return res, nil
}

// converged is the adaptive stopping rule applied to the scheduled slots:
// the verdict Result.MeetsTarget gives over their surviving invocations.
func converged(slots []*slotRecord, opts Options) bool {
	r := Result{Opts: opts}
	for _, slot := range slots {
		if slot != nil && slot.Invocation != nil {
			r.Invocations = append(r.Invocations, *slot.Invocation)
		}
	}
	return r.MeetsTarget()
}

// assembleSupervised merges completed slots in canonical invocation order
// into a Result and derives the supervision accounting from the per-slot
// records — the merge step that makes completion order unobservable.
func assembleSupervised(b workloads.Benchmark, opts Options, summary *analysis.Summary,
	so SupervisorOptions, faultSeed uint64, quorum int, slots []*slotRecord, resumed int) *Result {
	res := &Result{Benchmark: b.Name, Mode: opts.Mode, Opts: opts, Analysis: summary}
	sup := &Supervision{
		Planned:     len(slots),
		Quorum:      quorum,
		MaxRetries:  so.MaxRetries,
		Faults:      so.Faults,
		FaultSeed:   faultSeed,
		ResumedFrom: resumed,
	}
	res.Supervision = sup
	for _, slot := range slots {
		if slot == nil {
			continue
		}
		sup.Log = append(sup.Log, slot.Log)
		switch slot.Log.Status {
		case StatusClean:
			sup.Clean++
		case StatusRecovered:
			sup.Recovered++
		case StatusDropped:
			sup.Dropped++
		}
		sup.Attempts += len(slot.Log.Attempts)
		if n := len(slot.Log.Attempts); n > 1 {
			sup.Retries += n - 1
		}
		for _, at := range slot.Log.Attempts {
			if at.Fault != "" {
				sup.InjectedFaults++
			}
		}
		sup.QuarantinedSamples += slot.Quarantined
		if slot.Invocation != nil {
			res.Invocations = append(res.Invocations, *slot.Invocation)
		}
	}
	return res
}

// superviseOne drives one invocation slot through its retry budget and
// returns its complete record. sim is the Run's kept simulation (see
// attempt). ok is false when ctx ended before the slot's fate was
// settled: a failed attempt the cancel may have cut short is no outcome,
// so the slot must be neither recorded nor journaled.
func (s *Supervisor) superviseOne(ctx context.Context, exec invocationExecutor, b workloads.Benchmark,
	code *minipy.Code, opts Options, invIdx int, inj *faults.Injector, sim **Invocation) (slot slotRecord, ok bool) {
	obs := s.r.obs
	slot = slotRecord{Index: invIdx, Log: InvocationLog{Index: invIdx, Status: StatusDropped}}
	for attempt := 0; attempt <= s.opts.MaxRetries; attempt++ {
		if ctx.Err() != nil {
			return slot, false
		}
		fault := inj.Draw(invIdx, attempt, opts.Iterations)
		if attempt > 0 {
			obs.Trace.Instant(trace.CatSupervisor, "retry",
				"benchmark", b.Name, "invocation", strconv.Itoa(invIdx),
				"attempt", strconv.Itoa(attempt))
			obs.Metrics.Counter(mRetries, "invocation retry attempts").Inc()
		}
		rec := AttemptRecord{Attempt: attempt}
		if fault.Kind != faults.None {
			rec.Fault = fault.Kind.String()
			obs.Trace.Instant(trace.CatSupervisor, "fault-injected",
				"kind", fault.Kind.String(), "invocation", strconv.Itoa(invIdx),
				"attempt", strconv.Itoa(attempt))
			obs.Metrics.Counter(mFaultsInjected, "faults injected into attempts and journal writes").Inc()
		}
		inv, err := s.attempt(ctx, exec, b, code, opts, invIdx, attempt, fault, sim)
		if err == nil {
			var quarantined int
			quarantined, err = validateSamples(inv)
			slot.Quarantined += quarantined
			obs.Metrics.Counter(mQuarantined, "corrupted samples quarantined").
				Add(uint64(quarantined))
		}
		if err == nil {
			err = validateChecksum(b, inv)
		}
		if err == nil {
			slot.Log.Attempts = append(slot.Log.Attempts, rec)
			if attempt == 0 {
				slot.Log.Status = StatusClean
			} else {
				slot.Log.Status = StatusRecovered
			}
			slot.Invocation = inv
			return slot, true
		}
		if ctx.Err() != nil {
			return slot, false
		}
		rec.Error = err.Error()
		obs.Trace.Instant(trace.CatSupervisor, "attempt-failed",
			"benchmark", b.Name, "invocation", strconv.Itoa(invIdx),
			"attempt", strconv.Itoa(attempt), "error", err.Error())
		if attempt < s.opts.MaxRetries {
			rec.BackoffMs = jitterBackoff(inj.Seed(), invIdx, attempt).Milliseconds()
		}
		slot.Log.Attempts = append(slot.Log.Attempts, rec)
	}
	return slot, true
}

// attempt runs a single invocation attempt: it gets a simulation through
// the executor, then measures it through the attempt's noise stream.
// Hang, Stall and ChildKill attempts run their own sabotaged simulation;
// every other attempt replays *sim, simulating first if no attempt of the
// Run has yet done so successfully (a failed simulation is not kept).
// CorruptSample and WrongChecksum edit the measured copy, never *sim.
// Panics — injected or genuine engine bugs — are recovered and converted
// into ordinary attempt failures, so one bad invocation can never take
// the campaign down (a child-process crash never even reaches this
// process; the executor reports it as an error).
func (s *Supervisor) attempt(ctx context.Context, exec invocationExecutor, b workloads.Benchmark,
	code *minipy.Code, opts Options, invIdx, attempt int,
	fault faults.Fault, sim **Invocation) (inv *Invocation, err error) {
	defer func() {
		if r := recover(); r != nil {
			inv, err = nil, fmt.Errorf("invocation panicked: %v", r)
		}
	}()

	noiseIdx := invIdx
	if attempt > 0 {
		noiseIdx = invIdx + attempt*retrySalt
	}
	obs := s.r.obs
	var invSpan trace.Span
	if obs.Trace != nil {
		invSpan = obs.Trace.Begin(trace.CatInvocation, fmt.Sprintf("invocation %d", noiseIdx),
			"index", strconv.Itoa(noiseIdx))
	}
	defer invSpan.End() // deferred so panicking attempts still close the span
	gc := metrics.StartGCSample(obs.Metrics)
	defer gc.Stop()

	var run *Invocation
	switch fault.Kind {
	case faults.CompileError:
		return nil, fmt.Errorf("faults: injected transient compile error")
	case faults.Panic:
		panic(fmt.Sprintf("faults: injected panic (invocation %d, attempt %d)", invIdx, attempt))
	case faults.Hang:
		// Shrink the step budget to the point where the VM's own guard
		// must fire, simulating a hung invocation being reaped.
		o := opts
		o.MaxStepsPerInvocation = hangBudgetSteps
		run, err = exec.simulate(ctx, b, code, o, workerSabotage{})
	case faults.ChildKill:
		// The child dies abruptly mid-attempt (in-process: the attempt is
		// aborted with the same fate).
		run, err = exec.simulate(ctx, b, code, opts, workerSabotage{Exit: true})
	case faults.Stall:
		// The child livelocks until the watchdog reaps it (in-process:
		// degraded to the budget-guard hang realization).
		run, err = exec.simulate(ctx, b, code, opts, workerSabotage{Stall: true})
	default:
		if *sim == nil {
			*sim, err = exec.simulate(ctx, b, code, opts, workerSabotage{})
		}
		run = *sim
	}
	if err != nil {
		return nil, err
	}
	inv = s.r.measure(run, opts, noiseIdx)
	switch fault.Kind {
	case faults.CorruptSample:
		if fault.Iteration < len(inv.TimesSec) {
			inv.TimesSec[fault.Iteration] = math.NaN()
		}
	case faults.WrongChecksum:
		inv.Checksum = "corrupted:" + inv.Checksum
	}
	return inv, nil
}

// validateSamples scans an invocation's measurements for corrupted values
// (NaN, infinite, or non-positive times). A corrupted attempt is discarded
// whole — partial invocations would unbalance the two-level design the
// statistics assume — and the bad-sample count is surfaced as quarantined.
func validateSamples(inv *Invocation) (quarantined int, err error) {
	for _, ts := range inv.TimesSec {
		if math.IsNaN(ts) || math.IsInf(ts, 0) || ts <= 0 {
			quarantined++
		}
	}
	if quarantined > 0 {
		return quarantined, fmt.Errorf("%d corrupted sample(s) quarantined", quarantined)
	}
	return 0, nil
}
