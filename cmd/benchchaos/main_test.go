package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/noise"
	"repro/internal/workloads"
)

// TestMain lets the test binary serve as its own isolated worker: the soak
// spawns os.Executable() with a single -worker argument, exactly like the
// installed benchchaos binary does.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == "-worker" {
		if err := harness.WorkerMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(3)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func soak(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(append(args, "-dir", t.TempDir()), &out, &errb)
	return code, out.String(), errb.String()
}

func TestCleanSoakPasses(t *testing.T) {
	code, stdout, stderr := soak(t,
		"-bench", "fib", "-invocations", "4", "-iterations", "3",
		"-seed", "5", "-crashes", "1", "-faults", "none")
	if code != 0 {
		t.Fatalf("clean soak exited %d\n%s%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "PASS") {
		t.Fatalf("missing PASS verdict:\n%s", stdout)
	}
}

func TestFaultySoakStaysIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	code, stdout, stderr := soak(t,
		"-bench", "fib", "-invocations", "6", "-iterations", "3",
		"-seed", "7", "-crashes", "2", "-retries", "8",
		"-faults", "kill=0.3,torn=0.2,badrecord=0.1", "-v")
	if code != 0 {
		t.Fatalf("faulty soak exited %d\n%s%s", code, stdout, stderr)
	}
	// The schedule at this seed must actually inject something, or the
	// test proves nothing; "invisible chaos" requires chaos.
	if strings.Contains(stdout, "schedule injected nothing") {
		t.Fatalf("fault schedule was a no-op at this seed:\n%s", stdout)
	}
	if !strings.Contains(stdout, "identical through") {
		t.Fatalf("missing invariant report:\n%s", stdout)
	}
}

func TestInProcessSoakPasses(t *testing.T) {
	code, stdout, stderr := soak(t,
		"-bench", "fib", "-invocations", "4", "-iterations", "3",
		"-seed", "11", "-crashes", "1", "-isolate=false",
		"-faults", "panic=0.2,torn=0.2")
	if code != 0 {
		t.Fatalf("in-process soak exited %d\n%s%s", code, stdout, stderr)
	}
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-bench", "no-such-benchmark"},
		{"-mode", "turbo"},
		{"-faults", "badkind=0.5"},
		{"positional-arg"},
	}
	for _, args := range cases {
		if code, _, _ := soak(t, args...); code != 2 {
			t.Errorf("args %v exited %d, want 2 (usage)", args, code)
		}
	}
}

// compare holds a chaos result to the whole sample-set contract: a chaos
// round that changed one cycle or step count, with times and checksums
// intact, is a divergence.
func TestCompareCatchesCycleAndStepDrift(t *testing.T) {
	b, _ := workloads.ByName("fib")
	opts := harness.Options{Invocations: 3, Iterations: 3, Seed: 42, Noise: noise.Default()}
	ref, err := harness.NewSupervisor(harness.NewRunner(), harness.SupervisorOptions{}).Run(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"cycles", "steps"} {
		chaos := *ref
		chaos.Invocations = slices.Clone(ref.Invocations)
		inv := &chaos.Invocations[1]
		switch field {
		case "cycles":
			inv.Cycles = slices.Clone(inv.Cycles)
			inv.Cycles[2]++
		case "steps":
			inv.Steps = slices.Clone(inv.Steps)
			inv.Steps[2]++
		}
		var out, errb bytes.Buffer
		if code := compare(ref, &chaos, 0, &out, &errb); code != 1 {
			t.Fatalf("%s drift exited %d, want 1\n%s", field, code, errb.String())
		}
		if want := "invocation 1 " + field + " differ"; !strings.Contains(errb.String(), want) {
			t.Fatalf("%s drift not pinpointed (want %q):\n%s", field, want, errb.String())
		}
	}
	var out, errb bytes.Buffer
	if code := compare(ref, ref, 0, &out, &errb); code != 0 {
		t.Fatalf("self-compare exited %d\n%s", code, errb.String())
	}
}
