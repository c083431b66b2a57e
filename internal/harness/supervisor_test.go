package harness

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/noise"
	"repro/internal/vm"
	"repro/internal/wal"
)

func TestSupervisorNoFaultsMatchesRunner(t *testing.T) {
	b := mustBench(t, "fib")
	opts := Options{Invocations: 3, Iterations: 4, Seed: 11, Noise: noise.Default()}
	plain, err := NewRunner().Run(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := NewSupervisor(NewRunner(), SupervisorOptions{}).Run(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(sup.Invocations) != len(plain.Invocations) {
		t.Fatalf("supervised %d invocations, plain %d", len(sup.Invocations), len(plain.Invocations))
	}
	for i := range plain.Invocations {
		if !reflect.DeepEqual(plain.Invocations[i].TimesSec, sup.Invocations[i].TimesSec) {
			t.Fatalf("invocation %d times differ under zero-config supervision", i)
		}
	}
	sv := sup.Supervision
	if sv == nil {
		t.Fatal("supervised result must carry Supervision")
	}
	if sv.Clean != 3 || sv.Recovered != 0 || sv.Dropped != 0 || sv.Retries != 0 {
		t.Fatalf("clean run accounting wrong: %+v", sv)
	}
	if sv.Degraded() {
		t.Fatal("clean run must not be degraded")
	}
	if sv.EffectiveN() != 3 {
		t.Fatalf("EffectiveN %d", sv.EffectiveN())
	}
}

func TestSupervisorPanicFaultsRecovered(t *testing.T) {
	b := mustBench(t, "fib")
	so := SupervisorOptions{
		MaxRetries: 3,
		Quorum:     6,
		Faults:     faults.Params{PanicProb: 0.3},
	}
	opts := Options{Invocations: 10, Iterations: 3, Seed: 21, Noise: noise.Default()}
	res, err := NewSupervisor(NewRunner(), so).Run(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}
	sv := res.Supervision
	if sv.InjectedFaults == 0 {
		t.Fatal("a 30% panic rate over 10 invocations should inject at least once")
	}
	if sv.Retries == 0 {
		t.Fatal("injected panics should force retries")
	}
	if sv.Clean+sv.Recovered+sv.Dropped != sv.Planned {
		t.Fatalf("invocation accounting does not add up: %+v", sv)
	}
	if sv.EffectiveN() != len(res.Invocations) {
		t.Fatalf("EffectiveN %d but %d invocations recorded", sv.EffectiveN(), len(res.Invocations))
	}
	if sv.EffectiveN() < so.Quorum {
		t.Fatalf("run succeeded below quorum: %+v", sv)
	}
	// Panic records must be visible in the log.
	foundPanic := false
	for _, lg := range sv.Log {
		for _, at := range lg.Attempts {
			if at.Fault == "panic" && strings.Contains(at.Error, "panicked") {
				foundPanic = true
			}
		}
	}
	if !foundPanic {
		t.Fatal("no panic attempt recorded in the log")
	}
	if !strings.Contains(sv.Summary(), "retries") {
		t.Fatalf("summary missing retry accounting: %s", sv.Summary())
	}
}

func TestSupervisorDeterministicSchedule(t *testing.T) {
	b := mustBench(t, "collatz")
	so := SupervisorOptions{MaxRetries: 2, Quorum: 4, Faults: faults.Heavy()}
	opts := Options{Invocations: 8, Iterations: 3, Seed: 5, Noise: noise.Default()}
	run := func() *Result {
		res, err := NewSupervisor(NewRunner(), so).Run(context.Background(), b, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, c := run(), run()
	if !reflect.DeepEqual(a.Supervision.Log, c.Supervision.Log) {
		t.Fatal("same seed must reproduce the identical fault schedule and attempt log")
	}
	if !reflect.DeepEqual(a.Invocations, c.Invocations) {
		t.Fatal("same seed must reproduce identical measurements")
	}
	// A different fault seed changes the schedule without touching the
	// measurement stream of clean invocations.
	so2 := so
	so2.FaultSeed = 999
	d, err := NewSupervisor(NewRunner(), so2).Run(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Supervision.Log, d.Supervision.Log) {
		t.Fatal("different fault seeds should differ somewhere in an 8-invocation heavy schedule")
	}
}

func TestSupervisorFaultKinds(t *testing.T) {
	b := mustBench(t, "fib")
	opts := Options{Invocations: 2, Iterations: 3, Seed: 7, Noise: noise.Default()}
	cases := []struct {
		name      string
		params    faults.Params
		wantInErr string // substring of the recorded attempt error
	}{
		{"hang", faults.Params{HangProb: 1}, "step budget exhausted"},
		{"corrupt", faults.Params{CorruptProb: 1}, "quarantined"},
		{"checksum", faults.Params{ChecksumProb: 1}, "checksum mismatch"},
		{"compile", faults.Params{CompileErrProb: 1}, "transient compile error"},
		{"panic", faults.Params{PanicProb: 1}, "panicked"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := NewSupervisor(NewRunner(), SupervisorOptions{Faults: c.params}).Run(context.Background(), b, opts)
			if err == nil {
				t.Fatal("probability-1 faults with no retries must miss quorum")
			}
			if !strings.Contains(err.Error(), "quorum not met") {
				t.Fatalf("want quorum error, got: %v", err)
			}
			if res == nil || res.Supervision == nil {
				t.Fatal("quorum failure must still return the partial result")
			}
			sv := res.Supervision
			if sv.Dropped != 2 || sv.EffectiveN() != 0 {
				t.Fatalf("accounting: %+v", sv)
			}
			found := false
			for _, lg := range sv.Log {
				for _, at := range lg.Attempts {
					if at.Fault == c.name && strings.Contains(at.Error, c.wantInErr) {
						found = true
					}
				}
			}
			if !found {
				t.Fatalf("no attempt with fault %q and error containing %q in log %+v",
					c.name, c.wantInErr, sv.Log)
			}
			if c.name == "corrupt" && sv.QuarantinedSamples == 0 {
				t.Fatal("corrupt fault must count quarantined samples")
			}
		})
	}
}

func TestSupervisorQuorumPolicy(t *testing.T) {
	b := mustBench(t, "fib")
	opts := Options{Invocations: 4, Iterations: 2, Seed: 3, Noise: noise.Default()}
	// Quorum 0 is satisfied trivially: every invocation dropped still
	// "succeeds" only if quorum <= effective N, so prob-1 faults with
	// quorum 1 must fail...
	_, err := NewSupervisor(NewRunner(), SupervisorOptions{
		Faults: faults.Params{CompileErrProb: 1}, Quorum: 1,
	}).Run(context.Background(), b, opts)
	if err == nil {
		t.Fatal("zero successes cannot meet quorum 1")
	}
	// ...while retries that always eventually succeed can meet quorum.
	// CompileError is injected per attempt; prob 1 never clears, so use a
	// schedule where retries re-roll: heavy faults + generous retries.
	res, err := NewSupervisor(NewRunner(), SupervisorOptions{
		Faults: faults.Heavy(), MaxRetries: 8, Quorum: 3,
	}).Run(context.Background(), b, opts)
	if err != nil {
		t.Fatalf("heavy faults with 8 retries and quorum 3 of 4 should pass: %v", err)
	}
	if res.Supervision.EffectiveN() < 3 {
		t.Fatalf("quorum met but effective N %d", res.Supervision.EffectiveN())
	}
}

func TestSupervisorWallBudget(t *testing.T) {
	b := mustBench(t, "nbody")
	opts := Options{
		Invocations: 1, Iterations: 2, Seed: 9, Noise: noise.Default(),
		WallBudget: time.Nanosecond,
	}
	res, err := NewSupervisor(NewRunner(), SupervisorOptions{}).Run(context.Background(), b, opts)
	if err == nil {
		t.Fatal("a 1ns wall budget must abort the invocation")
	}
	sv := res.Supervision
	if sv.Dropped != 1 {
		t.Fatalf("accounting: %+v", sv)
	}
	if !strings.Contains(sv.Log[0].Attempts[0].Error, "wall budget") {
		t.Fatalf("attempt error should name the wall budget: %+v", sv.Log[0])
	}
}

func TestSupervisorCheckpointResume(t *testing.T) {
	b := mustBench(t, "collatz")
	so := SupervisorOptions{MaxRetries: 2, Quorum: 4, Faults: faults.Light()}
	opts := Options{Invocations: 6, Iterations: 3, Seed: 13, Noise: noise.Default()}

	// Uninterrupted reference run.
	ref, err := NewSupervisor(NewRunner(), so).Run(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Kill the journaled run after 3 invocations, then resume it.
	so.Checkpoint = CheckpointDir{Dir: t.TempDir()}
	crash := so
	crash.CrashAfter = 3
	if _, err := NewSupervisor(NewRunner(), crash).Run(context.Background(), b, opts); !errors.Is(err, ErrCrashPoint) {
		t.Fatalf("want ErrCrashPoint, got %v", err)
	}
	got, err := NewSupervisor(NewRunner(), so).Run(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Supervision.ResumedFrom != 3 {
		t.Fatalf("ResumedFrom = %d, want 3", got.Supervision.ResumedFrom)
	}
	if j := got.Supervision.Journal; j == nil || !j.Clean() || j.Records != 4 {
		t.Fatalf("journal should replay the key record and 3 slots cleanly: %+v", j)
	}
	if len(got.Supervision.Log) != len(ref.Supervision.Log) {
		t.Fatalf("log length %d after resume, want %d",
			len(got.Supervision.Log), len(ref.Supervision.Log))
	}
	// The resumed run must reproduce the uninterrupted measurements
	// exactly: completed invocations come from the checkpoint, the rest
	// from the deterministic seed discipline.
	if !reflect.DeepEqual(got.Invocations, ref.Invocations) {
		t.Fatal("resumed result differs from uninterrupted run")
	}
	// Resuming a fully completed run re-runs nothing.
	again, err := NewSupervisor(NewRunner(), so).Run(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if again.Supervision.ResumedFrom != opts.Invocations {
		t.Fatalf("completed checkpoint should resume at %d, got %d",
			opts.Invocations, again.Supervision.ResumedFrom)
	}
	if !reflect.DeepEqual(again.Invocations, ref.Invocations) {
		t.Fatal("fully-resumed result differs")
	}
}

func TestSupervisorCheckpointKeyMismatch(t *testing.T) {
	b := mustBench(t, "fib")
	so := SupervisorOptions{Checkpoint: CheckpointDir{Dir: t.TempDir()}}
	opts := Options{Invocations: 2, Iterations: 2, Seed: 1, Noise: noise.Default()}
	if _, err := NewSupervisor(NewRunner(), so).Run(context.Background(), b, opts); err != nil {
		t.Fatal(err)
	}
	// Same directory, different seed: refuse to resume.
	opts2 := opts
	opts2.Seed = 2
	_, err := NewSupervisor(NewRunner(), so).Run(context.Background(), b, opts2)
	if err == nil || !strings.Contains(err.Error(), "different experiment") {
		t.Fatalf("want key-mismatch error, got %v", err)
	}
	// A different executed stream is a different arm: another opt level or
	// the move-elided register stream.
	for _, arm := range []Options{{Opt: 2}, {VM: "reg-elide"}} {
		opts2 := opts
		opts2.Opt, opts2.VM = arm.Opt, arm.VM
		_, err := NewSupervisor(NewRunner(), so).Run(context.Background(), b, opts2)
		if err == nil || !strings.Contains(err.Error(), "different experiment") {
			t.Fatalf("opt=%d vm=%q: want key-mismatch error, got %v", arm.Opt, arm.VM, err)
		}
	}
	// "reg" names the default stream, so it resumes the journal "" wrote.
	opts2 = opts
	opts2.VM = "reg"
	res, err := NewSupervisor(NewRunner(), so).Run(context.Background(), b, opts2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Supervision.ResumedFrom != opts.Invocations {
		t.Fatalf("vm=reg: ResumedFrom = %d, want %d", res.Supervision.ResumedFrom, opts.Invocations)
	}
	// An intact record that is not a checkpoint entry: decode error, not a
	// crash.
	dir := t.TempDir()
	j, _, _, err := wal.OpenLines(wal.OSFS{}, filepath.Join(dir, "fib_interp.ckpt.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("{broken")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = NewSupervisor(NewRunner(), SupervisorOptions{Checkpoint: CheckpointDir{Dir: dir}}).Run(context.Background(), b, opts)
	if err == nil || !strings.Contains(err.Error(), "decoding checkpoint") {
		t.Fatalf("want decode error, got %v", err)
	}
}

// TestSupervisorCheckpointLayout pins the one checkpoint layout: every
// experiment journals to <bench>_<mode>.ckpt.wal in the checkpoint
// directory, so the arms of a pair stay apart and a later run over the same
// directory resumes each arm.
func TestSupervisorCheckpointLayout(t *testing.T) {
	dir := t.TempDir()
	b := mustBench(t, "fib")
	s := NewSupervisor(NewRunner(), SupervisorOptions{Checkpoint: CheckpointDir{Dir: dir}})
	opts := Options{Invocations: 2, Iterations: 2, Seed: 1, Noise: noise.Default()}
	refI, refJ, err := s.RunPair(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fib_interp.ckpt.wal", "fib_jit.ckpt.wal"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("arm journal missing: %v", err)
		}
	}
	gotI, gotJ, err := s.RunPair(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range []struct{ ref, got *Result }{{refI, gotI}, {refJ, gotJ}} {
		if arm.got.Supervision.ResumedFrom != 2 {
			t.Fatalf("%s resume: ResumedFrom = %d", arm.got.Mode, arm.got.Supervision.ResumedFrom)
		}
		if !reflect.DeepEqual(arm.got.Invocations, arm.ref.Invocations) {
			t.Fatalf("%s: resumed result differs", arm.got.Mode)
		}
	}
}

func TestSupervisorRunPair(t *testing.T) {
	b := mustBench(t, "quicksort")
	s := NewSupervisor(NewRunner(), SupervisorOptions{
		MaxRetries: 2, Quorum: 2, Faults: faults.Light(),
		Checkpoint: CheckpointDir{Dir: t.TempDir()},
	})
	opts := Options{Invocations: 3, Iterations: 3, Seed: 17, Noise: noise.Default()}
	interp, jit, err := s.RunPair(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if interp.Mode != vm.ModeInterp || jit.Mode != vm.ModeJIT {
		t.Fatal("modes not set")
	}
	if interp.Supervision == nil || jit.Supervision == nil {
		t.Fatal("both arms must carry supervision accounting")
	}
	// A failing arm is labelled.
	bad := mustBench(t, "fib")
	bad.Checksum = "wrong"
	_, _, err = NewSupervisor(NewRunner(), SupervisorOptions{}).RunPair(context.Background(), bad, opts)
	if err == nil || !strings.Contains(err.Error(), "[interp arm]") {
		t.Fatalf("arm label missing: %v", err)
	}
}

func TestSupervisionJSONRoundTrip(t *testing.T) {
	b := mustBench(t, "fib")
	res, err := NewSupervisor(NewRunner(), SupervisorOptions{
		MaxRetries: 1, Faults: faults.Params{CorruptProb: 0.5}, Quorum: 1,
	}).Run(context.Background(), b, Options{Invocations: 4, Iterations: 3, Seed: 2, Noise: noise.Default()})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"Supervision"`) {
		t.Fatal("supervision missing from JSON export")
	}
	back, err := ReadResultJSON(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Supervision, res.Supervision) {
		t.Fatal("supervision lost in round trip")
	}
}
