package harness

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/noise"
	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// stubProbes replaces the host-clock shard probes for the duration of a test
// with deterministic fabricated measurements.
func stubProbes(t *testing.T, overheads []float64) {
	t.Helper()
	orig := probeShardsFn
	probeShardsFn = func(workers int) []ShardProbe {
		probes := make([]ShardProbe, workers)
		for i := range probes {
			probes[i] = ShardProbe{Shard: i, ResolutionNs: 1, OverheadNs: overheads[i%len(overheads)]}
		}
		return probes
	}
	t.Cleanup(func() { probeShardsFn = orig })
}

// TestParallelSampleSetEquivalence is the tentpole property: for every
// shipped workload, at multiple seeds, the 4-worker sharded run produces an
// invocation list deeply equal to the sequential run — same samples, same
// order, same checksums. PolicyForce skips the guard so the comparison runs
// the actual sharded pool deterministically.
func TestParallelSampleSetEquivalence(t *testing.T) {
	all := append(append([]workloads.Benchmark{}, workloads.Suite()...),
		workloads.Extended()...)
	opts := Options{Invocations: 5, Iterations: 4, Noise: noise.Default()}
	so := SupervisorOptions{Workers: 4, Policy: PolicyForce}
	for _, seed := range []uint64{42, 20260806} {
		for _, b := range all {
			b, seed := b, seed
			t.Run(fmt.Sprintf("%s/seed%d", b.Name, seed), func(t *testing.T) {
				t.Parallel()
				o := opts
				o.Seed = seed
				seqRes, err := NewRunner().Run(b, o)
				if err != nil {
					t.Fatal(err)
				}
				parRes, err := NewSupervisor(NewRunner(), so).Run(context.Background(), b, o)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(seqRes.Invocations, parRes.Invocations) {
					t.Fatalf("parallel invocations differ from sequential for %s at seed %d",
						b.Name, seed)
				}
				if parRes.Parallelism == nil || parRes.Parallelism.Workers != 4 {
					t.Fatalf("parallelism record missing or wrong: %+v", parRes.Parallelism)
				}
			})
		}
	}
}

// TestSupervisedParallelMatchesSequential checks the same property through
// the supervisor with a heavy fault schedule: retries, drops, quarantines,
// and the attempt log must all be identical because every slot's fate is a
// pure function of (seed, invocation id, attempt).
func TestSupervisedParallelMatchesSequential(t *testing.T) {
	b := mustBench(t, "fib")
	opts := Options{Invocations: 8, Iterations: 5, Seed: 7, Noise: noise.Default()}
	so := SupervisorOptions{MaxRetries: 3, Quorum: 1, Faults: faults.Heavy()}

	seqRes, seqErr := NewSupervisor(NewRunner(), so).Run(context.Background(), b, opts)
	so.Workers, so.Policy = 4, PolicyForce
	parRes, parErr := NewSupervisor(NewRunner(), so).Run(context.Background(), b, opts)
	if (seqErr == nil) != (parErr == nil) {
		t.Fatalf("error divergence: sequential %v, parallel %v", seqErr, parErr)
	}
	if !reflect.DeepEqual(seqRes.Invocations, parRes.Invocations) {
		t.Fatal("supervised parallel invocations differ from sequential")
	}
	ss, ps := seqRes.Supervision, parRes.Supervision
	ss.Log, ps.Log = nil, nil // compared separately below for a sharper failure
	if !reflect.DeepEqual(ss, ps) {
		t.Fatalf("supervision accounting differs:\nseq %+v\npar %+v", ss, ps)
	}
	if !reflect.DeepEqual(seqRes.Supervision.Log, parRes.Supervision.Log) {
		t.Fatal("supervised attempt logs differ")
	}
}

// TestParallelCheckpointResume crashes a sharded run partway and resumes
// its journal sequentially: slot-keyed checkpoints make progress portable
// across worker counts.
func TestParallelCheckpointResume(t *testing.T) {
	b := mustBench(t, "fib")
	opts := Options{Invocations: 6, Iterations: 4, Seed: 9, Noise: noise.Default()}
	ref, err := NewRunner().Run(b, opts)
	if err != nil {
		t.Fatal(err)
	}

	ckpt := CheckpointDir{Dir: t.TempDir()}
	_, err = NewSupervisor(NewRunner(), SupervisorOptions{
		Workers: 3, Policy: PolicyForce, Checkpoint: ckpt, CrashAfter: 3,
	}).Run(context.Background(), b, opts)
	if !errors.Is(err, ErrCrashPoint) {
		t.Fatalf("want ErrCrashPoint, got %v", err)
	}
	resumed, err := NewSupervisor(NewRunner(), SupervisorOptions{Checkpoint: ckpt}).Run(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Shards finish the slots they were running when the crash point fired.
	if r := resumed.Supervision.ResumedFrom; r < 3 || r >= opts.Invocations {
		t.Fatalf("ResumedFrom = %d, want 3..%d", r, opts.Invocations-1)
	}
	if !reflect.DeepEqual(ref.Invocations, resumed.Invocations) {
		t.Fatal("resumed invocations differ from the uninterrupted run")
	}
}

// TestGuardFallbackOnContention fabricates dispersed shard probes and checks
// PolicyFallback reverts to sequential execution while PolicyGuard records
// the contention but stays parallel.
func TestGuardFallbackOnContention(t *testing.T) {
	stubProbes(t, []float64{10, 10, 10, 100}) // dispersion (100-10)/10 = 9
	b := mustBench(t, "fib")
	opts := Options{Invocations: 3, Iterations: 3, Seed: 1, Noise: noise.Default()}

	res, err := NewSupervisor(NewRunner(), SupervisorOptions{Workers: 4, Policy: PolicyFallback}).Run(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Parallelism
	if p == nil || !p.FellBack || !p.Contended {
		t.Fatalf("expected contended fallback, got %+v", p)
	}
	if !strings.Contains(p.Footnote(), "fell back to sequential") {
		t.Fatalf("footnote missing fallback: %q", p.Footnote())
	}

	res, err = NewSupervisor(NewRunner(), SupervisorOptions{Workers: 4, Policy: PolicyGuard}).Run(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}
	p = res.Parallelism
	if p == nil || p.FellBack || !p.Contended {
		t.Fatalf("expected contended-but-parallel, got %+v", p)
	}
	if !strings.Contains(p.Footnote(), "contention detected") {
		t.Fatalf("footnote missing contention warning: %q", p.Footnote())
	}
}

// TestGuardQuietHostStaysParallel fabricates uniform probes: no contention,
// no footnote, execution parallel.
func TestGuardQuietHostStaysParallel(t *testing.T) {
	stubProbes(t, []float64{20, 21, 20, 22})
	b := mustBench(t, "fib")
	opts := Options{Invocations: 3, Iterations: 3, Seed: 1, Noise: noise.Default()}
	res, err := NewSupervisor(NewRunner(), SupervisorOptions{Workers: 4, Policy: PolicyFallback}).Run(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Parallelism
	if p == nil || p.FellBack || p.Contended {
		t.Fatalf("quiet host misjudged: %+v", p)
	}
	if p.Footnote() != "" {
		t.Fatalf("quiet run should carry no footnote, got %q", p.Footnote())
	}
	if len(p.Probes) != 4 {
		t.Fatalf("want 4 probes recorded, got %d", len(p.Probes))
	}
}

// TestProfilerForcesSequential: the VM profiler aggregates one stream, so
// any parallel request with a profiler attached must fall back.
func TestProfilerForcesSequential(t *testing.T) {
	b := mustBench(t, "fib")
	r := NewRunner()
	r.SetObserver(Observer{Profile: profile.New()})
	res, err := NewSupervisor(r, SupervisorOptions{Workers: 4, Policy: PolicyForce}).
		Run(context.Background(), b, Options{Invocations: 2, Iterations: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Parallelism
	if p == nil || !p.FellBack || !strings.Contains(p.Reason, "profiler") {
		t.Fatalf("profiler run did not fall back: %+v", p)
	}
}

func TestProbeDispersion(t *testing.T) {
	cases := []struct {
		overheads []float64
		want      float64
	}{
		{nil, 0},
		{[]float64{5}, 0},
		{[]float64{10, 10}, 0},
		{[]float64{10, 20}, (20.0 - 10.0) / 15.0},
		{[]float64{10, 10, 10, 100}, 9},
	}
	for _, c := range cases {
		probes := make([]ShardProbe, len(c.overheads))
		for i, o := range c.overheads {
			probes[i] = ShardProbe{Shard: i, OverheadNs: o}
		}
		if got := probeDispersion(probes); got != c.want {
			t.Errorf("probeDispersion(%v) = %v, want %v", c.overheads, got, c.want)
		}
	}
}

func TestParseParallelPolicy(t *testing.T) {
	for in, want := range map[string]ParallelPolicy{
		"": PolicyGuard, "guard": PolicyGuard,
		"fallback": PolicyFallback, "force": PolicyForce,
	} {
		got, err := ParseParallelPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseParallelPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseParallelPolicy("bogus"); err == nil {
		t.Error("bogus policy accepted")
	}
}

// TestParallelTraceCarriesShardIDs: worker spans exist and invocation spans
// carry the executing shard in a "worker" argument.
func TestParallelTraceCarriesShardIDs(t *testing.T) {
	b := mustBench(t, "fib")
	r := NewRunner()
	tr := trace.New()
	r.SetObserver(Observer{Trace: tr, Metrics: metrics.NewRegistry()})
	_, err := NewSupervisor(r, SupervisorOptions{Workers: 3, Policy: PolicyForce}).
		Run(context.Background(), b, Options{Invocations: 6, Iterations: 3, Seed: 2, Noise: noise.Default()})
	if err != nil {
		t.Fatal(err)
	}
	var workerSpans, taggedInvocations int
	for _, ev := range tr.Events() {
		switch ev.Cat {
		case trace.CatWorker:
			workerSpans++
		case trace.CatInvocation:
			if ev.Args["worker"] != "" {
				taggedInvocations++
			}
		}
	}
	if workerSpans != 3 {
		t.Errorf("want 3 worker spans, got %d", workerSpans)
	}
	if taggedInvocations != 6 {
		t.Errorf("want 6 shard-tagged invocation spans, got %d", taggedInvocations)
	}
	// Utilization and worker-count gauges must be present in the registry.
	snap := r.obs.Metrics.Snapshot()
	found := map[string]bool{}
	for _, c := range snap.Counters {
		found[c.Name] = true
	}
	for _, g := range snap.Gauges {
		found[g.Name] = true
	}
	for _, name := range []string{mWorkers, mQueueDepth, mWorkerUtilization, mParallelRuns} {
		if !found[name] {
			t.Errorf("metric %s missing from snapshot", name)
		}
	}
}

// TestParallelErrorIsLowestIndex: when several invocations fail, the
// sharded run's quorum error names the invocation a sequential run would
// have hit first, and what went wrong with it.
func TestParallelErrorIsLowestIndex(t *testing.T) {
	b := mustBench(t, "fib")
	b.Checksum = "wrong" // every invocation fails checksum validation
	_, err := NewSupervisor(NewRunner(), SupervisorOptions{Workers: 4, Policy: PolicyForce}).
		Run(context.Background(), b, Options{Invocations: 5, Iterations: 2, Seed: 3})
	if !errors.Is(err, ErrQuorum) {
		t.Fatalf("want ErrQuorum, got %v", err)
	}
	for _, want := range []string{"invocation 0", "checksum mismatch"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("quorum error %q missing %q", err, want)
		}
	}
}
