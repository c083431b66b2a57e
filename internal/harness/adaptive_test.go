package harness

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/noise"
)

func runToTarget(t *testing.T, so SupervisorOptions, bench string, opts Options) *Result {
	t.Helper()
	res, err := NewSupervisor(NewRunner(), so).Run(context.Background(), mustBench(t, bench), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAdaptiveConvergesOnQuietMachine(t *testing.T) {
	res := runToTarget(t, SupervisorOptions{}, "collatz", Options{
		Invocations: 40, Iterations: 8, Seed: 1, Noise: noise.Quiet(),
		TargetRelHalfWidth: 0.01,
	})
	if !res.MeetsTarget() {
		t.Fatalf("quiet machine should converge: CI ±%.3f%% after %d invocations",
			100*res.StoppingCI().RelHalfWidth(), len(res.Invocations))
	}
	if len(res.Invocations) == 40 {
		t.Fatal("converged run should stop before the cap")
	}
}

func TestAdaptiveStopsAtBudgetOnNoisyMachine(t *testing.T) {
	res := runToTarget(t, SupervisorOptions{}, "fib", Options{
		Invocations: 12, Iterations: 5, Seed: 2, Noise: noise.Noisy(),
		TargetRelHalfWidth: 0.001, // unreachable at this budget
	})
	if res.MeetsTarget() {
		t.Fatal("±0.1% on a noisy machine with 12 invocations should not converge")
	}
	if got := len(res.Invocations); got != 12 {
		t.Fatalf("should stop exactly at the cap: %d invocations", got)
	}
	if got := res.Supervision.Planned; got <= adaptiveBatch {
		t.Fatalf("expected extension batches, planned %d", got)
	}
}

func TestAdaptiveNeedsMoreInvocationsWhenNoisier(t *testing.T) {
	run := func(p noise.Params) int {
		res := runToTarget(t, SupervisorOptions{}, "collatz", Options{
			Invocations: 80, Iterations: 8, Seed: 3, Noise: p,
			TargetRelHalfWidth: 0.01,
		})
		return len(res.Invocations)
	}
	quiet := run(noise.Quiet())
	noisy := run(noise.Default())
	if noisy <= quiet {
		t.Fatalf("noisier machine should need more invocations: quiet %d, default %d",
			quiet, noisy)
	}
}

func TestAdaptiveRequiresTarget(t *testing.T) {
	b := mustBench(t, "fib")
	if _, err := NewSupervisor(NewRunner(), SupervisorOptions{}).Run(context.Background(), b,
		Options{TargetRelHalfWidth: -0.01}); err == nil {
		t.Fatal("a non-positive target must error")
	}
}

// TestAdaptivePlannedAndQuorumCountScheduledSlots: under the stopping rule
// the accounting describes the slots the rule scheduled, not the cap.
func TestAdaptivePlannedAndQuorumCountScheduledSlots(t *testing.T) {
	res := runToTarget(t, SupervisorOptions{}, "collatz", Options{
		Invocations: 40, Iterations: 8, Seed: 1, Noise: noise.Quiet(),
		TargetRelHalfWidth: 0.01,
	})
	sv := res.Supervision
	n := len(res.Invocations)
	if n%adaptiveBatch != 0 || sv.Planned != n || sv.Quorum != n || sv.EffectiveN() != n {
		t.Fatalf("%d invocations, supervision %+v", n, sv)
	}
}

// TestAdaptiveCrashResumesToSameStop kills an adaptive run in the middle
// of a batch and resumes it from the journal: the resumed run must stop
// at the same point with the same sample set as the uninterrupted run.
func TestAdaptiveCrashResumesToSameStop(t *testing.T) {
	so := SupervisorOptions{MaxRetries: 2, Faults: faults.Light()}
	opts := Options{
		Invocations: 60, Iterations: 6, Seed: 5, Noise: noise.Default(),
		TargetRelHalfWidth: 0.01,
	}
	ref := runToTarget(t, so, "collatz", opts)
	if len(ref.Invocations) <= adaptiveBatch {
		t.Fatalf("reference converged in one batch (%d invocations); the crash would not land mid-run",
			len(ref.Invocations))
	}
	so.CheckpointDir = t.TempDir()
	crash := so
	crash.CrashAfter = adaptiveBatch + 2 // mid second batch
	b := mustBench(t, "collatz")
	if _, err := NewSupervisor(NewRunner(), crash).Run(context.Background(), b, opts); !errors.Is(err, ErrCrashPoint) {
		t.Fatalf("want the crash point, got %v", err)
	}
	got := runToTarget(t, so, "collatz", opts)
	if got.Supervision.ResumedFrom != crash.CrashAfter {
		t.Fatalf("resumed from %d, want %d", got.Supervision.ResumedFrom, crash.CrashAfter)
	}
	if !reflect.DeepEqual(got.Invocations, ref.Invocations) {
		t.Fatalf("resumed run: %d invocations, uninterrupted %d; sample sets differ",
			len(got.Invocations), len(ref.Invocations))
	}
	if !reflect.DeepEqual(got.Supervision.Log, ref.Supervision.Log) {
		t.Fatal("resumed attempt log differs from the uninterrupted run")
	}
}
