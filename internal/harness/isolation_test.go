package harness

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/noise"
	"repro/internal/wal"
)

// TestMain doubles as the worker binary: with PYBENCH_TEST_WORKER set the
// test binary re-execs into WorkerMain — the same trick `pybench -worker`
// plays in production, so subprocess isolation is testable without a
// separately built CLI. A value other than "1" names a file to which the
// child appends every request frame it reads.
func TestMain(m *testing.M) {
	if v := os.Getenv("PYBENCH_TEST_WORKER"); v != "" {
		var stdin io.Reader = os.Stdin
		if v != "1" {
			f, err := os.OpenFile(v, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
			if err != nil {
				os.Exit(1)
			}
			stdin = io.TeeReader(os.Stdin, f)
		}
		if err := WorkerMain(stdin, os.Stdout); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// testIsolation builds IsolationOptions that re-exec this test binary.
func testIsolation(t *testing.T) IsolationOptions {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	return IsolationOptions{
		Enabled: true,
		Command: []string{exe},
		Env:     []string{"PYBENCH_TEST_WORKER=1"},
	}
}

// sameSamples asserts two results meet the sample-set contract.
func sameSamples(t *testing.T, want, got *Result, label string) {
	t.Helper()
	if err := SameSamples(want, got); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

func TestIsolatedRunMatchesInProcess(t *testing.T) {
	b := mustBench(t, "fib")
	opts := Options{Invocations: 4, Iterations: 3, Seed: 42, Noise: noise.Default()}
	inproc, err := NewSupervisor(NewRunner(), SupervisorOptions{}).Run(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}
	iso, err := NewSupervisor(NewRunner(), SupervisorOptions{Isolation: testIsolation(t)}).Run(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameSamples(t, inproc, iso, "isolated vs in-process")
	if iso.Supervision.Isolation != "subprocess" {
		t.Fatalf("Isolation = %q, want subprocess", iso.Supervision.Isolation)
	}
	if inproc.Supervision.Isolation != "in-process" {
		t.Fatalf("Isolation = %q, want in-process", inproc.Supervision.Isolation)
	}
}

func TestIsolationFallsBackOnBadCommand(t *testing.T) {
	b := mustBench(t, "fib")
	opts := Options{Invocations: 2, Iterations: 2, Seed: 5, Noise: noise.Default()}
	iso := IsolationOptions{Enabled: true, Command: []string{"/nonexistent/worker/binary"}}
	res, err := NewSupervisor(NewRunner(), SupervisorOptions{Isolation: iso}).Run(context.Background(), b, opts)
	if err != nil {
		t.Fatalf("fallback must keep the campaign alive: %v", err)
	}
	sup := res.Supervision
	if sup.Isolation == "subprocess" || sup.Isolation == "in-process" {
		t.Fatalf("Isolation = %q, want a fallback note", sup.Isolation)
	}
	inproc, err := NewSupervisor(NewRunner(), SupervisorOptions{}).Run(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameSamples(t, inproc, res, "fallback vs in-process")
}

// TestIsolatedFaultFatesMatchInProcess drives injected child kills and
// stalls through both substrates: the attempt fates — and therefore the
// surviving sample set — must be identical, because the fault schedule is a
// pure function of the seed and both substrates realize each fault as an
// attempt failure.
func TestIsolatedFaultFatesMatchInProcess(t *testing.T) {
	b := mustBench(t, "fib")
	so := func(iso IsolationOptions) SupervisorOptions {
		iso.Watchdog = time.Second // reap injected stalls quickly
		return SupervisorOptions{
			MaxRetries: 3,
			Quorum:     3,
			Faults:     faults.Params{KillProb: 0.3, StallProb: 0.15},
			Isolation:  iso,
		}
	}
	opts := Options{Invocations: 6, Iterations: 3, Seed: 33, Noise: noise.Default()}
	inproc, err := NewSupervisor(NewRunner(), so(IsolationOptions{})).Run(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}
	iso, err := NewSupervisor(NewRunner(), so(testIsolation(t))).Run(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if inproc.Supervision.InjectedFaults == 0 {
		t.Fatal("fault model injected nothing; test proves nothing")
	}
	if iso.Supervision.InjectedFaults != inproc.Supervision.InjectedFaults {
		t.Fatalf("injected faults differ: %d isolated vs %d in-process",
			iso.Supervision.InjectedFaults, inproc.Supervision.InjectedFaults)
	}
	for i := range inproc.Supervision.Log {
		il, sl := iso.Supervision.Log[i], inproc.Supervision.Log[i]
		if il.Status != sl.Status || len(il.Attempts) != len(sl.Attempts) {
			t.Fatalf("slot %d fate differs: isolated %s/%d vs in-process %s/%d",
				i, il.Status, len(il.Attempts), sl.Status, len(sl.Attempts))
		}
	}
	sameSamples(t, inproc, iso, "faulted isolated vs in-process")
	if iso.Supervision.WorkerKills == 0 {
		t.Fatal("injected kills/stalls should show up as worker kills")
	}
}

func TestJournalCheckpointCrashResume(t *testing.T) {
	b := mustBench(t, "fib")
	opts := Options{Invocations: 5, Iterations: 3, Seed: 9, Noise: noise.Default()}
	clean, err := NewSupervisor(NewRunner(), SupervisorOptions{}).Run(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}

	ck := CheckpointDir{Dir: t.TempDir()}
	_, err = NewSupervisor(NewRunner(), SupervisorOptions{Checkpoint: ck, CrashAfter: 3}).Run(context.Background(), b, opts)
	if !errors.Is(err, ErrCrashPoint) {
		t.Fatalf("want ErrCrashPoint, got %v", err)
	}

	// A fresh run replays the journal the "crash" left behind.
	res, err := NewSupervisor(NewRunner(), SupervisorOptions{Checkpoint: ck}).Run(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Supervision.ResumedFrom != 3 {
		t.Fatalf("ResumedFrom = %d, want 3", res.Supervision.ResumedFrom)
	}
	if res.Supervision.Journal == nil || !res.Supervision.Journal.Clean() {
		t.Fatalf("clean crash must leave a clean journal: %+v", res.Supervision.Journal)
	}
	sameSamples(t, clean, res, "resumed vs uninterrupted")
}

func TestJournalTornTailResumesLosslessly(t *testing.T) {
	b := mustBench(t, "fib")
	opts := Options{Invocations: 4, Iterations: 3, Seed: 13, Noise: noise.Default()}
	clean, err := NewSupervisor(NewRunner(), SupervisorOptions{}).Run(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}

	ck := CheckpointDir{Dir: t.TempDir()}
	_, err = NewSupervisor(NewRunner(), SupervisorOptions{Checkpoint: ck, CrashAfter: 2}).Run(context.Background(), b, opts)
	if !errors.Is(err, ErrCrashPoint) {
		t.Fatalf("want ErrCrashPoint, got %v", err)
	}

	// Tear the tail: kill -9 mid-append leaves a half-written final line.
	path := onlyJournal(t, ck.Dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	res, err := NewSupervisor(NewRunner(), SupervisorOptions{Checkpoint: ck}).Run(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The torn record (one slot) is lost and re-run; everything intact is kept.
	if res.Supervision.ResumedFrom != 1 {
		t.Fatalf("ResumedFrom = %d, want 1 (torn slot re-run)", res.Supervision.ResumedFrom)
	}
	if res.Supervision.Journal == nil || res.Supervision.Journal.TornTailBytes == 0 {
		t.Fatalf("torn tail must be reported: %+v", res.Supervision.Journal)
	}
	if !res.Supervision.Degraded() {
		t.Fatal("journal damage must mark the run degraded")
	}
	sameSamples(t, clean, res, "torn-tail resume vs uninterrupted")
}

// TestBinaryJournalReadsAsDamage: a checkpoint left by a build that wrote
// binary frames (4-byte length, 4-byte CRC32C, payload) is not trusted.
// Recovery reports it as damage and the run starts fresh, with the same
// sample set as a run that never saw it.
func TestBinaryJournalReadsAsDamage(t *testing.T) {
	b := mustBench(t, "fib")
	opts := Options{Invocations: 3, Iterations: 2, Seed: 19, Noise: noise.Default()}
	clean, err := NewSupervisor(NewRunner(), SupervisorOptions{}).Run(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}

	// A crash point leaves the experiment's journal at its path; the old
	// build's frames replace it.
	ck := CheckpointDir{Dir: t.TempDir()}
	if _, err := NewSupervisor(NewRunner(), SupervisorOptions{Checkpoint: ck, CrashAfter: 1}).Run(context.Background(), b, opts); !errors.Is(err, ErrCrashPoint) {
		t.Fatalf("want ErrCrashPoint, got %v", err)
	}
	var old []byte
	for _, rec := range []string{`{"Header":{"Version":3,"Key":"v3|fib|interp"}}`, `{"Slot":{"Index":0}}`} {
		old = binary.BigEndian.AppendUint32(old, uint32(len(rec)))
		old = binary.BigEndian.AppendUint32(old, crc32.Checksum([]byte(rec), crc32.MakeTable(crc32.Castagnoli)))
		old = append(old, rec...)
	}
	if err := os.WriteFile(onlyJournal(t, ck.Dir), old, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := NewSupervisor(NewRunner(), SupervisorOptions{Checkpoint: ck}).Run(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if j := res.Supervision.Journal; j == nil || j.Clean() || j.Records != 0 {
		t.Fatalf("binary journal must be reported as damage with nothing recovered: %+v", j)
	}
	if res.Supervision.ResumedFrom != 0 {
		t.Fatalf("ResumedFrom = %d, want a fresh run", res.Supervision.ResumedFrom)
	}
	sameSamples(t, clean, res, "fresh run over a binary journal vs clean run")
}

func TestCheckpointErrorsAreSurvived(t *testing.T) {
	b := mustBench(t, "fib")
	opts := Options{Invocations: 3, Iterations: 2, Seed: 17, Noise: noise.Default()}
	// A disk that refuses every write: the campaign must finish anyway and
	// report the lost durability.
	full := faults.NewChaosFS(wal.OSFS{}, faults.Params{DiskFullProb: 1}, 1)
	ck := CheckpointDir{Dir: t.TempDir(), FS: full}
	res, err := NewSupervisor(NewRunner(), SupervisorOptions{Checkpoint: ck}).Run(context.Background(), b, opts)
	if err != nil {
		t.Fatalf("checkpoint failure must not kill the run: %v", err)
	}
	sup := res.Supervision
	if sup.CheckpointErrors != 3 {
		t.Fatalf("CheckpointErrors = %d, want 3", sup.CheckpointErrors)
	}
	if sup.CheckpointError == "" || !sup.Degraded() {
		t.Fatalf("failed durability must degrade the run: %+v", sup)
	}
}

func TestQuorumFailureIsErrQuorum(t *testing.T) {
	b := mustBench(t, "fib")
	so := SupervisorOptions{Faults: faults.Params{PanicProb: 1.0}}
	opts := Options{Invocations: 3, Iterations: 2, Seed: 3, Noise: noise.Default()}
	_, err := NewSupervisor(NewRunner(), so).Run(context.Background(), b, opts)
	if !errors.Is(err, ErrQuorum) {
		t.Fatalf("want ErrQuorum, got %v", err)
	}
	// The message names the first lost invocation and why it was lost.
	for _, want := range []string{"invocation 0", "panicked"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("quorum error %q missing %q", err, want)
		}
	}
}

func TestJitterBackoffDeterministicAndBounded(t *testing.T) {
	for inv := 0; inv < 8; inv++ {
		for attempt := 0; attempt < 10; attempt++ {
			d1 := jitterBackoff(99, inv, attempt)
			d2 := jitterBackoff(99, inv, attempt)
			if d1 != d2 {
				t.Fatalf("jitter not deterministic at (%d,%d): %s vs %s", inv, attempt, d1, d2)
			}
			env := backoffBase << uint(attempt)
			if env > backoffMax || env <= 0 {
				env = backoffMax
			}
			if d1 < env/2 || d1 > env {
				t.Fatalf("backoff %s outside [%s, %s] at (%d,%d)", d1, env/2, env, inv, attempt)
			}
		}
	}
	// Different invocations must desynchronize (no thundering herd).
	if jitterBackoff(99, 0, 1) == jitterBackoff(99, 1, 1) &&
		jitterBackoff(99, 0, 2) == jitterBackoff(99, 2, 2) {
		t.Fatal("jitter identical across invocations; streams not split")
	}
}
