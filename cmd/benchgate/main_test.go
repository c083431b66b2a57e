package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
)

const (
	baselineFixture = "testdata/baseline.json"
	slow20Fixture   = "testdata/slow20.json"
)

func gate(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestIdenticalBaselinePasses(t *testing.T) {
	code, stdout, _ := gate(t, "-baseline", baselineFixture, "-candidate", baselineFixture)
	if code != 0 {
		t.Fatalf("identical inputs exited %d\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "PASS") {
		t.Fatalf("missing PASS verdict:\n%s", stdout)
	}
}

func TestTwentyPercentSlowdownFails(t *testing.T) {
	code, stdout, stderr := gate(t, "-baseline", baselineFixture, "-candidate", slow20Fixture)
	if code != 1 {
		t.Fatalf("20%% slowdown exited %d, want 1\n%s%s", code, stdout, stderr)
	}
	if !strings.Contains(stderr, "significant slowdown") {
		t.Fatalf("missing slowdown diagnosis:\n%s", stderr)
	}
}

func TestSpeedupDirectionPasses(t *testing.T) {
	// Gating the slow result against the fast one is a speedup: not a failure.
	code, stdout, _ := gate(t, "-baseline", slow20Fixture, "-candidate", baselineFixture)
	if code != 0 {
		t.Fatalf("speedup exited %d\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "speedup") {
		t.Fatalf("missing speedup verdict:\n%s", stdout)
	}
}

func TestEquivalenceSelfMatch(t *testing.T) {
	code, stdout, _ := gate(t, "-baseline", baselineFixture, "-candidate", baselineFixture, "-equivalence")
	if code != 0 || !strings.Contains(stdout, "bit-identical") {
		t.Fatalf("self-equivalence failed (exit %d):\n%s", code, stdout)
	}
}

func TestEquivalenceDetectsSingleSampleDrift(t *testing.T) {
	res := loadFixture(t, baselineFixture)
	res.Invocations[2].TimesSec[3] *= 1.0000001
	drifted := writeFixture(t, res)
	code, _, stderr := gate(t, "-baseline", baselineFixture, "-candidate", drifted, "-equivalence")
	if code != 1 {
		t.Fatalf("drifted sample exited %d, want 1", code)
	}
	if !strings.Contains(stderr, "invocation 2") {
		t.Fatalf("mismatch not pinpointed:\n%s", stderr)
	}
}

func TestMismatchedBenchmarksRejected(t *testing.T) {
	res := loadFixture(t, baselineFixture)
	res.Benchmark = "nbody"
	other := writeFixture(t, res)
	code, _, stderr := gate(t, "-baseline", baselineFixture, "-candidate", other)
	if code != 2 {
		t.Fatalf("cross-benchmark comparison exited %d, want 2", code)
	}
	if !strings.Contains(stderr, "not comparable") {
		t.Fatalf("missing diagnosis:\n%s", stderr)
	}
}

func TestMissingFlagsUsageError(t *testing.T) {
	if code, _, _ := gate(t, "-baseline", baselineFixture); code != 2 {
		t.Fatalf("missing -candidate exited %d, want 2", code)
	}
	// Unreadable input is an infrastructure failure (3), not usage: the
	// flags were fine, the environment was not.
	if code, _, _ := gate(t, "-candidate", baselineFixture, "-baseline", "testdata/nonexistent.json"); code != 3 {
		t.Fatalf("unreadable baseline exited %d, want 3", code)
	}
}

func TestNoEffectFloorFlagsTinyShift(t *testing.T) {
	// A 1% uniform slowdown passes the default 2% floor but fails with
	// the floor disabled (-min-effect -1 = pure significance test).
	res := loadFixture(t, baselineFixture)
	for i := range res.Invocations {
		for j := range res.Invocations[i].TimesSec {
			res.Invocations[i].TimesSec[j] *= 1.01
		}
	}
	tiny := writeFixture(t, res)
	if code, stdout, _ := gate(t, "-baseline", baselineFixture, "-candidate", tiny); code != 0 {
		t.Fatalf("sub-floor shift exited %d, want 0\n%s", code, stdout)
	}
	if code, _, _ := gate(t, "-baseline", baselineFixture, "-candidate", tiny, "-min-effect", "-1"); code != 1 {
		t.Fatalf("floor-disabled gate did not flag the shift (exit %d)", code)
	}
}

func loadFixture(t *testing.T, path string) *harness.Result {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res, err := harness.ReadResultJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func writeFixture(t *testing.T, res *harness.Result) string {
	t.Helper()
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "result.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}
