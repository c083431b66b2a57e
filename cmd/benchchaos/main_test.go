package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/harness"
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
