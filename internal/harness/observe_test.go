package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/noise"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func fibBench(t *testing.T) workloads.Benchmark {
	t.Helper()
	b, ok := workloads.ByName("fib")
	if !ok {
		t.Fatal("fib benchmark missing")
	}
	return b
}

func TestRunnerEmitsSpanHierarchy(t *testing.T) {
	tr := trace.New()
	r := NewRunner()
	r.SetObserver(Observer{Trace: tr})
	if _, err := r.Run(fibBench(t), Options{Invocations: 2, Iterations: 3, Seed: 1, Noise: noise.Quiet()}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Validate(buf.Bytes()); err != nil {
		t.Fatalf("runner trace invalid: %v", err)
	}
	if err := trace.ValidateSpans(buf.Bytes(),
		trace.CatBenchmark, trace.CatInvocation, trace.CatIteration, trace.CatPhase); err != nil {
		t.Fatal(err)
	}
	// 1 benchmark + 2 invocations + the one simulation (1 module setup, 3
	// iterations, 3 run() phases) + 2 replay phases.
	if want := 1 + 2 + 1 + 3 + 3 + 2; tr.Len() != want {
		t.Errorf("event count = %d, want %d", tr.Len(), want)
	}
}

func TestSupervisorEmitsInstantEvents(t *testing.T) {
	tr := trace.New()
	reg := metrics.NewRegistry()
	r := NewRunner()
	r.SetObserver(Observer{Trace: tr, Metrics: reg})
	s := NewSupervisor(r, SupervisorOptions{
		MaxRetries: 5,
		Faults:     faults.Params{PanicProb: 0.4},
		Checkpoint: CheckpointDir{Dir: t.TempDir()},
	})
	res, err := s.Run(context.Background(), fibBench(t), Options{Invocations: 4, Iterations: 2, Seed: 3, Noise: noise.Quiet()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Supervision.InjectedFaults == 0 {
		t.Skip("seed drew no faults; adjust seed") // deterministic, should not happen
	}

	names := map[string]int{}
	for _, e := range tr.Events() {
		if e.Cat == trace.CatSupervisor {
			names[e.Name]++
		}
	}
	if names["fault-injected"] != res.Supervision.InjectedFaults {
		t.Errorf("fault-injected events %d != injected faults %d",
			names["fault-injected"], res.Supervision.InjectedFaults)
	}
	if names["retry"] != res.Supervision.Retries {
		t.Errorf("retry events %d != retries %d", names["retry"], res.Supervision.Retries)
	}
	if names["attempt-failed"] == 0 || names["checkpoint-save"] != 4 {
		t.Errorf("missing supervisor events: %v", names)
	}

	snap := reg.Snapshot()
	if got := snap.Counter(mRetries); int(got) != res.Supervision.Retries {
		t.Errorf("retries metric %d != %d", got, res.Supervision.Retries)
	}
	if got := snap.Counter(mFaultsInjected); int(got) != res.Supervision.InjectedFaults {
		t.Errorf("faults metric %d != %d", got, res.Supervision.InjectedFaults)
	}
	if snap.Counter(mCheckpointSaves) != 4 {
		t.Errorf("checkpoint-save metric = %d", snap.Counter(mCheckpointSaves))
	}

	// The trace must still be schema-valid with instants interleaved.
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Validate(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsSnapshotRidesResultJSON(t *testing.T) {
	reg := metrics.NewRegistry()
	metrics.CalibrateTimer(reg)
	r := NewRunner()
	r.SetObserver(Observer{Metrics: reg})
	res, err := r.Run(fibBench(t), Options{Invocations: 2, Iterations: 2, Seed: 1, Noise: noise.Quiet()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil {
		t.Fatal("metrics snapshot not attached to result")
	}
	if res.Metrics.Counter(mInvocations) != 2 {
		t.Errorf("invocations counter = %d", res.Metrics.Counter(mInvocations))
	}
	if res.Metrics.Counter(mIterations) != 4 {
		t.Errorf("iterations counter = %d", res.Metrics.Counter(mIterations))
	}
	if v, ok := res.Metrics.Gauge(metrics.TimerOverheadNs); !ok || v <= 0 {
		t.Error("timer calibration missing from snapshot")
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if _, ok := decoded["metrics"]; !ok {
		t.Fatalf("JSON output missing metrics key: %s", buf.Bytes()[:200])
	}
	if !strings.Contains(buf.String(), metrics.GCPauseTotalNs) {
		t.Error("GC telemetry missing from JSON metrics")
	}
}

func TestMetricsOffLeavesJSONClean(t *testing.T) {
	r := NewRunner()
	res, err := r.Run(fibBench(t), Options{Invocations: 1, Iterations: 2, Seed: 1, Noise: noise.Quiet()})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"metrics"`) {
		t.Fatal("metrics key must be absent when no registry is attached")
	}
}

func TestCodeCacheMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	r := NewRunner()
	r.SetObserver(Observer{Metrics: reg})
	b := fibBench(t)
	opts := Options{Invocations: 1, Iterations: 1, Seed: 1, Noise: noise.Quiet()}
	if _, err := r.Run(b, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(b, opts); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counter(mCacheMisses) != 1 || snap.Counter(mCacheHits) != 1 {
		t.Errorf("cache metrics wrong: hits=%d misses=%d",
			snap.Counter(mCacheHits), snap.Counter(mCacheMisses))
	}
}
