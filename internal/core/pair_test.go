package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/harness"
	"repro/internal/noise"
	"repro/internal/vm"
	"repro/internal/workloads"
)

func mustBench(t *testing.T, name string) workloads.Benchmark {
	t.Helper()
	b, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("no benchmark %q", name)
	}
	return b
}

func TestRunPairValidatesChecksums(t *testing.T) {
	e := New(Config{Invocations: 2, Seed: 9, Noise: noise.Default()})
	interp, jit, err := e.RunPair(mustBench(t, "quicksort"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if interp.Mode != vm.ModeInterp || jit.Mode != vm.ModeJIT {
		t.Fatal("modes not set")
	}
	if interp.Invocations[0].Checksum != jit.Invocations[0].Checksum {
		t.Fatal("pair checksums differ")
	}
}

// TestPairChecksumError exercises the engine-agreement check directly with
// fabricated results, including the disagreement case the end-to-end path
// cannot produce (both engines share semantics by construction).
func TestPairChecksumError(t *testing.T) {
	res := func(sum string) *harness.Result {
		return &harness.Result{Invocations: []harness.Invocation{{Checksum: sum}}}
	}
	cases := []struct {
		name        string
		interp, jit *harness.Result
		wantErr     string
	}{
		{"agree", res("42"), res("42"), ""},
		{"disagree", res("42"), res("43"), "engines disagree on b: interp=42 jit=43"},
		{"empty interp", &harness.Result{}, res("42"), "cannot validate"},
		{"empty jit", res("42"), &harness.Result{}, "cannot validate"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := pairChecksumError("b", c.interp, c.jit)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("want %q, got %v", c.wantErr, err)
			}
		})
	}
}

func TestRunPairFailureNamesBenchmarkAndArm(t *testing.T) {
	bad := workloads.Benchmark{
		Name:     "badsum",
		Source:   "def run():\n    return 1",
		Checksum: "2",
	}
	_, _, err := New(Config{Invocations: 1}).RunPair(bad, 1)
	if err == nil {
		t.Fatal("checksum mismatch must fail the pair")
	}
	for _, want := range []string{"badsum", "[interp arm]"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("pair error %q missing %q", err.Error(), want)
		}
	}
}

// TestRunPairSupervised runs a pair under a fault policy with a checkpoint
// directory: both arms carry their supervision accounting, and a failing
// arm is labelled.
func TestRunPairSupervised(t *testing.T) {
	cfg := Config{Invocations: 3, Seed: 17, Noise: noise.Default(),
		Retries: 2, Quorum: 2, Faults: faults.Light(), CheckpointDir: t.TempDir()}
	interp, jit, err := New(cfg).RunPair(mustBench(t, "quicksort"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if interp.Mode != vm.ModeInterp || jit.Mode != vm.ModeJIT {
		t.Fatal("modes not set")
	}
	if interp.Supervision == nil || jit.Supervision == nil {
		t.Fatal("both arms must carry supervision accounting")
	}
	bad := mustBench(t, "fib")
	bad.Checksum = "wrong"
	_, _, err = New(Config{Invocations: 3, Seed: 17, Noise: noise.Default()}).RunPair(bad, 3)
	if err == nil || !strings.Contains(err.Error(), "[interp arm]") {
		t.Fatalf("arm label missing: %v", err)
	}
}

// TestRunPairArmsDrawIndependentNoise: fib's interpreter and JIT arms cost
// the same noise-free, so only noise can tell their samples apart; each
// arm's seed gives it its own stream, so no invocation repeats the other
// arm's times (arms run at one seed were bit-identical).
func TestRunPairArmsDrawIndependentNoise(t *testing.T) {
	const iterations = 6
	e := New(Config{Invocations: 4, Seed: 7, Noise: noise.Quiet()})
	fib := mustBench(t, "fib")
	pi, err := e.baseProfile(fib, vm.ModeInterp, iterations)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := e.baseProfile(fib, vm.ModeJIT, iterations)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pi, pj) {
		t.Fatalf("fib's noise-free arms differ (%v vs %v); the test needs a program they agree on", pi, pj)
	}
	interp, jit, err := e.RunPair(fib, iterations)
	if err != nil {
		t.Fatal(err)
	}
	for i := range interp.Invocations {
		if reflect.DeepEqual(interp.Invocations[i].TimesSec, jit.Invocations[i].TimesSec) {
			t.Errorf("invocation %d: both arms drew the same times %v", i, interp.Invocations[i].TimesSec)
		}
	}
}

// TestArmsDrawTheirBenchmarksFaultSchedule: a fault schedule is a pure
// function of (campaign seed, benchmark, mode). Two benchmarks' arms draw
// different fault seeds, and each arm draws the one a bare supervisor at
// the campaign seed (pybench -bench) draws for its benchmark and mode.
func TestArmsDrawTheirBenchmarksFaultSchedule(t *testing.T) {
	cfg := Config{Invocations: 2, Seed: 7, Noise: noise.Quiet()}
	e := New(cfg)
	seen := map[uint64]string{}
	for _, name := range []string{"fib", "nbody"} {
		b := mustBench(t, name)
		interp, jit, err := e.RunPair(b, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, arm := range []*harness.Result{interp, jit} {
			bare, err := harness.NewSupervisor(harness.NewRunner(), harness.SupervisorOptions{}).Run(context.Background(), b,
				harness.Options{Mode: arm.Mode, Invocations: 2, Iterations: 2, Seed: cfg.Seed})
			if err != nil {
				t.Fatal(err)
			}
			label := name + "/" + arm.Mode.String()
			if got, want := arm.Supervision.FaultSeed, bare.Supervision.FaultSeed; got != want {
				t.Errorf("%s: fault seed %d, want %d, as pybench -bench %s -seed %d draws",
					label, got, want, name, cfg.Seed)
			}
			if other, dup := seen[arm.Supervision.FaultSeed]; dup {
				t.Errorf("%s draws the fault schedule of %s", label, other)
			}
			seen[arm.Supervision.FaultSeed] = label
		}
	}
}
