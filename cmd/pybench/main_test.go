package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/controlapi"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/harness"
	"repro/internal/noise"
	"repro/internal/trace"
	"repro/internal/version"
	"repro/internal/workloads"
)

// noObs is the disabled observability bundle used by tests that exercise
// other behavior; every sink is nil so it must be free.
func noObs() *observability { return newObservability("", false) }

func TestNoiseByName(t *testing.T) {
	cases := map[string]noise.Params{
		"":        noise.Default(),
		"default": noise.Default(),
		"quiet":   noise.Quiet(),
		"noisy":   noise.Noisy(),
	}
	for name, want := range cases {
		got, err := noiseByName(name)
		if err != nil {
			t.Fatalf("noiseByName(%q): %v", name, err)
		}
		if got != want {
			t.Errorf("noiseByName(%q) = %+v", name, got)
		}
	}
	if _, err := noiseByName("bogus"); err == nil {
		t.Fatal("unknown noise name must error")
	}
	none, err := noiseByName("none")
	if err != nil {
		t.Fatal(err)
	}
	if none.InvocationSigma != 0 || none.SpikeProb != 0 {
		t.Fatalf("none model should be noiseless: %+v", none)
	}
}

// benchSpec builds the single-benchmark campaign spec the -bench path
// constructs from flags.
func benchSpec(name, mode string, inv, iter int, seed uint64, noiseName string) controlapi.CampaignSpec {
	return controlapi.CampaignSpec{
		Benchmarks:  []string{name},
		Mode:        mode,
		Invocations: inv,
		Iterations:  iter,
		Seed:        seed,
		Noise:       noiseName,
	}
}

func TestDoBenchErrors(t *testing.T) {
	err := doBench(benchSpec("no-such-benchmark", "interp", 0, 0, 0, ""), "", "", false, noObs())
	if err == nil {
		t.Fatal("unknown benchmark must error")
	}
	// The error must point the user at what they can actually run.
	for _, want := range []string{"no-such-benchmark", "fib", "-list"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-benchmark error missing %q: %v", want, err)
		}
	}
	if err := doBench(benchSpec("fib", "turbo", 0, 0, 0, ""), "", "", false, noObs()); err == nil {
		t.Fatal("unknown mode must error")
	}
	// The stack interpreter is gone: -vm stack is a usage error (exit 2).
	spec := benchSpec("fib", "interp", 0, 0, 0, "")
	spec.VM = "stack"
	var se *controlapi.SpecError
	if err := doBench(spec, "", "", false, noObs()); !errors.As(err, &se) {
		t.Fatalf("-vm stack: want a spec error, got %v", err)
	}
}

func TestDoProfileAndDisassembleErrors(t *testing.T) {
	if err := doProfile("no-such-benchmark", ""); err == nil {
		t.Fatal("unknown benchmark must error")
	}
	if err := doDisassemble("no-such-benchmark", 0); err == nil {
		t.Fatal("unknown benchmark must error")
	}
}

func TestDoExperimentsUnknownID(t *testing.T) {
	if err := doExperiments("T99", core.Config{Invocations: 2, Iterations: 2}, renderText); err == nil {
		t.Fatal("unknown experiment id must error")
	}
}

// captureStdout runs f with os.Stdout redirected to a pipe and returns
// everything it printed. f's error fails the test.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	ferr := f()
	w.Close()
	os.Stdout = old
	out, rerr := io.ReadAll(r)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if ferr != nil {
		t.Fatalf("%v\noutput:\n%s", ferr, out)
	}
	return string(out)
}

func TestSupervisorOptionsMapping(t *testing.T) {
	cfg := core.Config{Retries: 3, Quorum: 2, Faults: faults.Light(), FaultSeed: 99,
		CheckpointDir: "ckpt"}
	so := cfg.SupervisorOptions()
	if so.MaxRetries != 3 || so.Quorum != 2 || so.FaultSeed != 99 || so.Faults != faults.Light() {
		t.Fatalf("supervision policy lost in translation: %+v", so)
	}
	// The harness names each experiment's journal inside the directory.
	if so.Checkpoint.Dir != "ckpt" || so.Checkpoint.FS != nil {
		t.Fatalf("checkpoint directory lost in translation: %+v", so.Checkpoint)
	}
}

func TestDoBenchSupervisedWithFaults(t *testing.T) {
	dir := t.TempDir()
	spec := benchSpec("fib", "interp", 3, 4, 7, "quiet")
	spec.Retries = 4
	spec.Quorum = 2
	spec.Faults = "panic=0.3"
	out := captureStdout(t, func() error { return doBench(spec, dir, "", false, noObs()) })
	for _, want := range []string{"effective N", "retries / dropped / quarantined"} {
		if !strings.Contains(out, want) {
			t.Errorf("supervised -bench output missing %q:\n%s", want, out)
		}
	}
	matches, err := filepath.Glob(filepath.Join(dir, "*.ckpt.wal"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no checkpoint written to %s (err %v)", dir, err)
	}
	// Re-running against the completed checkpoint must succeed (nothing
	// re-runs) and report the same numbers, plus the resume annotation.
	again := captureStdout(t, func() error { return doBench(spec, dir, "", false, noObs()) })
	if !strings.Contains(again, "resumed at invocation 3") {
		t.Errorf("resumed -bench missing resume annotation:\n%s", again)
	}
	if stripped := strings.ReplaceAll(again, "; resumed at invocation 3", ""); stripped != out {
		t.Errorf("resumed -bench differs from original:\n--- first\n%s--- resumed\n%s", out, again)
	}
}

// TestSuiteAndBenchShareCheckpointLayout: -suite -resume leaves one
// <bench>_<mode>.ckpt.wal per arm, and a -bench run of the same experiment
// over that directory resumes the suite's interp arm instead of re-running
// it — every surface uses the harness's one checkpoint layout.
func TestSuiteAndBenchShareCheckpointLayout(t *testing.T) {
	dir := t.TempDir()
	cfg := core.Config{Invocations: 2, Iterations: 2, Seed: 7, Noise: noise.Quiet(), CheckpointDir: dir}
	captureStdout(t, func() error { return doSuite(cfg, renderText, noObs()) })
	suite := workloads.Suite()
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(files) != 2*len(suite) {
		t.Fatalf("want %d journals in %s, got %v (err %v)", 2*len(suite), dir, files, err)
	}
	for _, wl := range suite {
		for _, mode := range []string{"interp", "jit"} {
			if _, err := os.Stat(filepath.Join(dir, wl.Name+"_"+mode+".ckpt.wal")); err != nil {
				t.Fatalf("suite arm journal missing: %v", err)
			}
		}
	}

	out := captureStdout(t, func() error {
		return doBench(benchSpec("fib", "interp", 2, 2, 7, "quiet"), dir, "", true, noObs())
	})
	res, err := harness.ReadResultJSON(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if res.Supervision.ResumedFrom != 2 {
		t.Fatalf("-bench did not resume the suite's journal: ResumedFrom = %d, want 2",
			res.Supervision.ResumedFrom)
	}
}

func TestTraceFlagWritesValidChromeTrace(t *testing.T) {
	traceFile := filepath.Join(t.TempDir(), "out.trace.json")
	o := newObservability(traceFile, false)
	captureStdout(t, func() error {
		if err := doBench(benchSpec("fib", "interp", 2, 3, 7, "quiet"), "", "", false, o); err != nil {
			return err
		}
		return o.finish(os.Stdout, true)
	})
	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatalf("trace file not written: %v", err)
	}
	n, err := trace.Validate(data)
	if err != nil {
		t.Fatalf("emitted trace is not schema-valid: %v", err)
	}
	if n == 0 {
		t.Fatal("trace has no events")
	}
	if err := trace.ValidateSpans(data, trace.CatSuite, trace.CatBenchmark,
		trace.CatInvocation, trace.CatIteration, trace.CatPhase); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), version.Producer()) {
		t.Error("trace metadata missing producer stamp")
	}
}

func TestMetricsFlagRidesBenchJSON(t *testing.T) {
	o := newObservability("", true)
	out := captureStdout(t, func() error {
		if err := doBench(benchSpec("fib", "interp", 2, 2, 7, "quiet"), "", "", true, o); err != nil {
			return err
		}
		// -json suppresses the text snapshot so stdout stays a JSON document.
		return o.finish(os.Stdout, false)
	})
	for _, want := range []string{`"metrics"`, "harness_invocations_total",
		"harness_timer_overhead_ns", "harness_gc_pause_ns_total"} {
		if !strings.Contains(out, want) {
			t.Errorf("-json output missing %q", want)
		}
	}
	if strings.Contains(out, "# HELP") {
		t.Error("text exposition leaked into -json stdout")
	}
}

func TestMetricsFlagPrintsTextSnapshot(t *testing.T) {
	o := newObservability("", true)
	out := captureStdout(t, func() error {
		if err := doBench(benchSpec("fib", "interp", 1, 2, 7, "quiet"), "", "", false, o); err != nil {
			return err
		}
		return o.finish(os.Stdout, true)
	})
	for _, want := range []string{"# HELP", "harness_invocations_total 1",
		"harness_timer_resolution_ns"} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics snapshot missing %q:\n%s", want, out)
		}
	}
}

func TestDoProfileReconcilesAndWritesCollapsed(t *testing.T) {
	collapsed := filepath.Join(t.TempDir(), "fib.folded")
	out := captureStdout(t, func() error { return doProfile("fib", collapsed) })
	// Interpreter with no probe: attribution must reconcile exactly.
	if !strings.Contains(out, "(100.00% reconciled)") {
		t.Errorf("profile not reconciled:\n%s", out)
	}
	for _, want := range []string{"Line profile: fib", "By function", "By opcode", "fib"} {
		if !strings.Contains(out, want) {
			t.Errorf("profile output missing %q", want)
		}
	}
	data, err := os.ReadFile(collapsed)
	if err != nil {
		t.Fatalf("collapsed stacks not written: %v", err)
	}
	if !strings.Contains(string(data), "run;fib;fib ") {
		t.Errorf("folded stacks missing recursive fib frames:\n%s", data)
	}
}

func TestVersionString(t *testing.T) {
	s := version.String()
	for _, want := range []string{"pybench", version.Version, "go"} {
		if !strings.Contains(s, want) {
			t.Errorf("version string missing %q: %s", want, s)
		}
	}
}

func TestBenchmarkNamesInventory(t *testing.T) {
	names := benchmarkNames()
	if len(names) == 0 {
		t.Fatal("no benchmarks in inventory")
	}
	err := unknownBenchmark("bogus")
	for _, n := range names {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("unknownBenchmark hint missing %q", n)
		}
	}
}

func TestDoSuiteSupervisedFootnotes(t *testing.T) {
	cfg := core.Config{
		Invocations: 2,
		Iterations:  2,
		Seed:        7,
		Noise:       noise.Quiet(),
		Retries:     3,
		Quorum:      1,
		Faults:      faults.Params{PanicProb: 0.2},
	}
	out := captureStdout(t, func() error { return doSuite(cfg, renderText, noObs()) })
	if !strings.Contains(out, "note: supervised: faults=panic=0.2, retries=3, quorum=1") {
		t.Errorf("suite output missing supervision footnote:\n%s", out)
	}
	if !strings.Contains(out, "GEOMEAN") {
		t.Errorf("suite table incomplete:\n%s", out)
	}
}
