package harness

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/noise"
	"repro/internal/procexec"
	"repro/internal/trace"
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

// journals lists the checkpoint journals in dir.
func journals(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.ckpt.wal"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// onlyJournal is the one checkpoint journal in dir.
func onlyJournal(t *testing.T, dir string) string {
	t.Helper()
	paths := journals(t, dir)
	if len(paths) != 1 {
		t.Fatalf("want one journal in %s, got %v", dir, paths)
	}
	return paths[0]
}

// TestSupervisorCheckpointKeyMismatch: a journal is named by its
// experiment key, so another seed, opt level or executed stream writes a
// journal of its own and resumes nothing, while "" and "reg", one stream,
// share one. A file at a key's path whose key record differs is refused,
// and an undecodable record fails the run.
func TestSupervisorCheckpointKeyMismatch(t *testing.T) {
	b := mustBench(t, "fib")
	dir := t.TempDir()
	so := SupervisorOptions{Checkpoint: CheckpointDir{Dir: dir}}
	opts := Options{Invocations: 2, Iterations: 2, Seed: 1, Noise: noise.Default()}
	run := func(o Options) (*Result, error) {
		return NewSupervisor(NewRunner(), so).Run(context.Background(), b, o)
	}
	if _, err := run(opts); err != nil {
		t.Fatal(err)
	}
	first := onlyJournal(t, dir)
	// A different seed, opt level or executed stream (the move-elided
	// register stream) is another experiment.
	for i, arm := range []Options{{Seed: 2}, {Seed: 1, Opt: 2}, {Seed: 1, VM: "reg-elide"}} {
		o := opts
		o.Seed, o.Opt, o.VM = arm.Seed, arm.Opt, arm.VM
		res, err := run(o)
		if err != nil {
			t.Fatalf("seed=%d opt=%d vm=%q: %v", arm.Seed, arm.Opt, arm.VM, err)
		}
		if res.Supervision.ResumedFrom != 0 {
			t.Fatalf("seed=%d opt=%d vm=%q resumed another experiment's journal at %d",
				arm.Seed, arm.Opt, arm.VM, res.Supervision.ResumedFrom)
		}
		if n := len(journals(t, dir)); n != 2+i {
			t.Fatalf("seed=%d opt=%d vm=%q: %d journals, want %d", arm.Seed, arm.Opt, arm.VM, n, 2+i)
		}
	}
	// "reg" names the default stream, so it resumes the journal "" wrote.
	o := opts
	o.VM = "reg"
	res, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Supervision.ResumedFrom != opts.Invocations || len(journals(t, dir)) != 4 {
		t.Fatalf("vm=reg: ResumedFrom = %d over %d journals, want %d over 4",
			res.Supervision.ResumedFrom, len(journals(t, dir)), opts.Invocations)
	}
	// A file at a key's path whose key record differs is refused.
	other := journals(t, dir)[0]
	if other == first {
		other = journals(t, dir)[1]
	}
	raw, err := os.ReadFile(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(first, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := run(opts); err == nil || !strings.Contains(err.Error(), "different experiment") {
		t.Fatalf("want key-mismatch error, got %v", err)
	}
	// An intact record that is not a checkpoint entry: decode error, not a
	// crash.
	if err := os.Remove(first); err != nil {
		t.Fatal(err)
	}
	j, _, _, err := wal.OpenLines(wal.OSFS{}, first)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("{broken")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := run(opts); err == nil || !strings.Contains(err.Error(), "decoding checkpoint") {
		t.Fatalf("want decode error, got %v", err)
	}
}

// TestSupervisorCheckpointLayout pins the one checkpoint layout: every
// experiment journals to a file of its own in the checkpoint directory,
// named by its key, so the two arms of a pair stay apart and a later run
// over the same directory resumes each arm.
func TestSupervisorCheckpointLayout(t *testing.T) {
	dir := t.TempDir()
	b := mustBench(t, "fib")
	s := NewSupervisor(NewRunner(), SupervisorOptions{Checkpoint: CheckpointDir{Dir: dir}})
	arms := func() []*Result {
		var out []*Result
		for _, mode := range []vm.Mode{vm.ModeInterp, vm.ModeJIT} {
			res, err := s.Run(context.Background(), b, Options{Mode: mode, Invocations: 2, Iterations: 2, Seed: 1, Noise: noise.Default()})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
		return out
	}
	ref := arms()
	if paths := journals(t, dir); len(paths) != 2 {
		t.Fatalf("want one journal per arm in %s, got %v", dir, paths)
	}
	for i, got := range arms() {
		if got.Supervision.ResumedFrom != 2 {
			t.Fatalf("%s resume: ResumedFrom = %d", got.Mode, got.Supervision.ResumedFrom)
		}
		if !reflect.DeepEqual(got.Invocations, ref[i].Invocations) {
			t.Fatalf("%s: resumed result differs", got.Mode)
		}
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

// countEvents counts tr's events named name.
func countEvents(tr *trace.Tracer, name string) int {
	n := 0
	for _, ev := range tr.Events() {
		if ev.Name == name {
			n++
		}
	}
	return n
}

// countFaults counts the attempts in sv's log that drew one of kinds.
func countFaults(sv *Supervision, kinds ...faults.Kind) int {
	n := 0
	for _, lg := range sv.Log {
		for _, at := range lg.Attempts {
			for _, k := range kinds {
				if at.Fault == k.String() {
					n++
				}
			}
		}
	}
	return n
}

// TestSimulatesOncePerExperiment pins the run's cost contract: the VM runs
// once per Run, and every slot replays that run through its own noise
// stream. Only an attempt that must realize its own fault (a hang, or a
// sabotaged child) runs the VM again; a corrupted or mis-checksummed
// attempt edits its own copy, so later slots still replay clean data.
func TestSimulatesOncePerExperiment(t *testing.T) {
	b := mustBench(t, "fib")
	opts := Options{Invocations: 10, Iterations: 3, Seed: 42, Noise: noise.Default()}

	t.Run("clean", func(t *testing.T) {
		tr := trace.New()
		r := NewRunner()
		r.SetObserver(Observer{Trace: tr})
		if _, err := r.Run(b, opts); err != nil {
			t.Fatal(err)
		}
		if got := countEvents(tr, "module-setup"); got != 1 {
			t.Errorf("%d module-setup spans, want 1", got)
		}
		if got := countEvents(tr, "replay"); got != 10 {
			t.Errorf("%d replay spans, want 10", got)
		}
	})

	t.Run("hangs", func(t *testing.T) {
		tr := trace.New()
		r := NewRunner()
		r.SetObserver(Observer{Trace: tr})
		so := SupervisorOptions{MaxRetries: 8,
			Faults: faults.Params{HangProb: 0.2, CorruptProb: 0.1, ChecksumProb: 0.1}}
		res, err := NewSupervisor(r, so).Run(context.Background(), b, opts)
		if err != nil {
			t.Fatal(err)
		}
		sv := res.Supervision
		hangs := countFaults(sv, faults.Hang)
		if hangs == 0 || countFaults(sv, faults.CorruptSample, faults.WrongChecksum) == 0 {
			t.Fatalf("the pinned schedule drew no hang or no edit fault: %+v", sv.Log)
		}
		if got := countEvents(tr, "module-setup"); got != 1+hangs {
			t.Errorf("the VM ran %d times, want 1 + %d hang attempts", got, hangs)
		}
		if sv.EffectiveN() != opts.Invocations {
			t.Errorf("effective N %d, want %d: an edit fault reached the kept run", sv.EffectiveN(), opts.Invocations)
		}
	})

	t.Run("isolated", func(t *testing.T) {
		log := filepath.Join(t.TempDir(), "requests")
		iso := testIsolation(t)
		iso.Env = []string{"PYBENCH_TEST_WORKER=" + log}
		so := SupervisorOptions{MaxRetries: 6, Isolation: iso,
			Faults: faults.Params{KillProb: 0.3, HangProb: 0.2}}
		res, err := NewSupervisor(NewRunner(), so).Run(context.Background(), b, opts)
		if err != nil {
			t.Fatal(err)
		}
		kills := countFaults(res.Supervision, faults.ChildKill)
		hangs := countFaults(res.Supervision, faults.Hang)
		if kills == 0 || hangs == 0 {
			t.Fatalf("the pinned schedule drew %d kills and %d hangs", kills, hangs)
		}
		f, err := os.Open(log)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var requests, sabotaged int
		for {
			raw, err := procexec.ReadFrame(f)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			var req workerRequest
			if err := json.Unmarshal(raw, &req); err != nil {
				t.Fatal(err)
			}
			requests++
			if req.Sabotage != (workerSabotage{}) {
				sabotaged++
			}
		}
		if sabotaged != kills || requests != 1+kills+hangs {
			t.Errorf("the child got %d requests (%d sabotaged), want 1 simulation + %d kills + %d hangs",
				requests, sabotaged, kills, hangs)
		}
	})
}
