package harness

import (
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Observer bundles the two observability sinks a Runner (and any
// Supervisor wrapping it) reports into:
//
//   - Trace records the experiment hierarchy as spans (suite → benchmark →
//     invocation → iteration → phase) plus supervisor instant events, for
//     export as Chrome trace-event JSON;
//   - Metrics accumulates harness self-telemetry (GC interference, timer
//     calibration, cache/retry/checkpoint activity).
//
// Every field is optional; the zero Observer is free. The hot path's only
// cost for a disabled sink is a nil check (see the allocation guard in
// internal/vm/tracer_test.go). The per-op VM profiler is not a sink here:
// an experiment simulates once, so `pybench -profile` drives its own VM.
type Observer struct {
	Trace   *trace.Tracer
	Metrics *metrics.Registry
}

// Harness self-telemetry metric names (the rest live in internal/metrics).
const (
	mInvocations     = "harness_invocations_total"
	mIterations      = "harness_iterations_total"
	mCacheHits       = "harness_code_cache_hits_total"
	mCacheMisses     = "harness_code_cache_misses_total"
	mRetries         = "harness_retries_total"
	mFaultsInjected  = "harness_faults_injected_total"
	mDropped         = "harness_invocations_dropped_total"
	mQuarantined     = "harness_samples_quarantined_total"
	mCheckpointSaves = "harness_checkpoint_saves_total"
	mResumes         = "harness_checkpoint_resumes_total"

	// Crash-safety and isolation telemetry.
	mCheckpointErrors   = "harness_checkpoint_errors_total"
	mJournalRecoveries  = "harness_journal_recoveries_total"
	mWorkerSpawns       = "harness_worker_spawns_total"
	mWorkerKills        = "harness_worker_kills_total"
	mIsolationFallbacks = "harness_isolation_fallbacks_total"
)

// SetObserver attaches the observability sinks. Call it before Run; the
// runner does not synchronize replacement against in-flight experiments.
func (r *Runner) SetObserver(obs Observer) { r.obs = obs }

// Observer returns the attached sinks (zero value when none were set).
func (r *Runner) Observer() Observer { return r.obs }

// snapshotMetrics attaches a metrics snapshot to the result when a registry
// is present, surfacing the telemetry under the result's "metrics" JSON key.
func (r *Runner) snapshotMetrics(res *Result) {
	if r.obs.Metrics == nil {
		return
	}
	snap := r.obs.Metrics.Snapshot()
	res.Metrics = &snap
}
