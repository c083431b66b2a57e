package harness

import (
	"context"
	"encoding/json"
	"errors"
	"strconv"
	"syscall"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/noise"
	"repro/internal/trace"
	"repro/internal/wal"
)

// workerPid waits for the first worker-spawn event on tr and returns the
// child's pid.
func workerPid(t *testing.T, tr *trace.Tracer) int {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		for _, ev := range tr.Events() {
			if ev.Name == "worker-spawn" {
				pid, err := strconv.Atoi(ev.Args["pid"])
				if err != nil {
					t.Errorf("worker-spawn pid %q: %v", ev.Args["pid"], err)
				}
				return pid
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Error("no worker was spawned")
	return 0
}

// TestCancelKillsIsolatedChild cancels an isolated run while its one
// simulation has seconds left to run in the child: Run must return the
// cancel cause within a second, and the child must be dead.
func TestCancelKillsIsolatedChild(t *testing.T) {
	r := NewRunner()
	tr := trace.New()
	r.SetObserver(Observer{Trace: tr})
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	cause := errors.New("campaign cancelled by test")
	// 400 spectralnorm iterations take seconds to simulate.
	opts := Options{Invocations: 2, Iterations: 400, Seed: 1, Noise: noise.Quiet()}

	type outcome struct {
		res *Result
		err error
		at  time.Time
	}
	sup := NewSupervisor(r, SupervisorOptions{Isolation: testIsolation(t)})
	b := mustBench(t, "spectralnorm")
	done := make(chan outcome, 1)
	go func() {
		res, err := sup.Run(ctx, b, opts)
		done <- outcome{res, err, time.Now()}
	}()
	pid := workerPid(t, tr)
	time.Sleep(100 * time.Millisecond) // let the child start the simulation
	cancelled := time.Now()
	cancel(cause)
	var out outcome
	select {
	case out = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Run ignored the cancel")
	}
	if !errors.Is(out.err, cause) || out.res != nil {
		t.Fatalf("want a nil result and an error wrapping the cause, got %v, %v", out.res, out.err)
	}
	if lag := out.at.Sub(cancelled); lag > time.Second {
		t.Fatalf("Run returned %s after the cancel", lag)
	}
	if pid == 0 {
		return
	}
	if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
		t.Fatalf("worker %d still exists after the cancel (kill -0: %v)", pid, err)
	}
}

// TestCancelLeavesJournalResumable journals slot 0 (a crash point after
// one slot), then cancels the resumed run in the middle of its one
// simulation. The journal must keep the completed slot and hold no record
// for the attempt the cancel cut short (no retry, no dropped slot), so a
// rerun with a live context reproduces the uninterrupted sample set.
func TestCancelLeavesJournalResumable(t *testing.T) {
	b := mustBench(t, "spectralnorm")
	opts := Options{Invocations: 4, Iterations: 40, Seed: 3, Noise: noise.Default()}
	so := SupervisorOptions{MaxRetries: 2}
	ref, err := NewSupervisor(NewRunner(), so).Run(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}

	so.Checkpoint = CheckpointDir{Dir: t.TempDir()}
	crash := so
	crash.CrashAfter = 1
	if _, err := NewSupervisor(NewRunner(), crash).Run(context.Background(), b, opts); !errors.Is(err, ErrCrashPoint) {
		t.Fatalf("want ErrCrashPoint after slot 0, got %v", err)
	}
	r := NewRunner()
	reg := metrics.NewRegistry()
	tr := trace.New()
	r.SetObserver(Observer{Trace: tr, Metrics: reg})
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	cause := errors.New("campaign cancelled by test")
	go func() {
		// The simulation runs its iterations once its module setup ended.
		for ctx.Err() == nil && countEvents(tr, "module-setup") == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel(cause)
	}()
	if _, err := NewSupervisor(r, so).Run(ctx, b, opts); !errors.Is(err, cause) {
		t.Fatalf("want an error wrapping the cancel cause, got %v", err)
	}
	if got := reg.Counter(mRetries, "").Value(); got != 0 {
		t.Fatalf("the cancelled attempt was retried %d time(s)", got)
	}
	if got := reg.Counter(mInvocations, "").Value(); got != 0 {
		t.Fatalf("the cancelled simulation was measured %d time(s)", got)
	}

	jn, records, _, err := wal.OpenLines(wal.OSFS{}, onlyJournal(t, so.Checkpoint.Dir))
	if err != nil {
		t.Fatal(err)
	}
	jn.Close()
	var journaled []int
	for _, rec := range records[1:] {
		var e journalEntry
		if err := json.Unmarshal(rec, &e); err != nil || e.Slot == nil {
			t.Fatalf("bad journal record %s: %v", rec, err)
		}
		if e.Slot.Log.Status == StatusDropped {
			t.Fatalf("the cancel was journaled as a dropped slot: %+v", e.Slot.Log)
		}
		journaled = append(journaled, e.Slot.Index)
	}
	if len(journaled) != 1 || journaled[0] != 0 {
		t.Fatalf("journal holds slots %v, want only the completed slot 0", journaled)
	}

	got, err := NewSupervisor(NewRunner(), so).Run(context.Background(), b, opts)
	if err != nil {
		t.Fatalf("rerun with a live context: %v", err)
	}
	if got.Supervision.ResumedFrom != 1 {
		t.Fatalf("rerun resumed from %d, want 1", got.Supervision.ResumedFrom)
	}
	sameSamples(t, ref, got, "resumed after cancel")
}
