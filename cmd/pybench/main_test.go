package main

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/controlapi"
	"repro/internal/core"
	"repro/internal/exitcode"
	"repro/internal/faults"
	"repro/internal/harness"
	"repro/internal/noise"
	"repro/internal/trace"
	"repro/internal/version"
	"repro/internal/workloads"
)

// TestMain lets the test binary run pybench itself: given -pybench as its
// first argument, it runs main on the arguments after it.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-pybench" {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestObservabilityFlagsNeedBenchOrSuite runs pybench with -trace or
// -metrics beside every command that would ignore them (all but -bench,
// -suite and -exp), -list also beside -bench, which it takes precedence
// over: each is a usage error that prints nothing to stdout and writes no
// trace.
func TestObservabilityFlagsNeedBenchOrSuite(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	traceFile := filepath.Join(t.TempDir(), "out.trace.json")
	commands := [][]string{{"-profile", "fib"}, {"-dis", "fib"}, {"-list"}, {"-list", "-bench", "fib"}}
	for _, command := range commands {
		for _, obs := range [][]string{{"-trace", traceFile}, {"-metrics"}} {
			args := append(append([]string{"-pybench"}, command...), obs...)
			var stdout, stderr strings.Builder
			cmd := exec.Command(exe, args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != exitcode.Usage {
				t.Errorf("pybench %s: %v, want exit %d", strings.Join(args[1:], " "), err, exitcode.Usage)
			}
			if stdout.Len() > 0 || !strings.Contains(stderr.String(), "apply only to -bench, -suite and -exp") {
				t.Errorf("pybench %s: stdout %q, stderr %q", strings.Join(args[1:], " "), stdout.String(), stderr.String())
			}
			if _, err := os.Stat(traceFile); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("pybench %s wrote a trace (%v)", strings.Join(args[1:], " "), err)
			}
		}
	}
}

// TestJSONAndCollapsedNeedTheirCommand runs pybench with -json beside
// every command but -bench, with -collapsed beside every command but
// -profile, with -opt beside commands other than -bench and -dis, and with
// -mode (also at its default value), -vm or -daemon-addr beside commands
// other than -bench (and with no command, and with a command ahead of the
// one that reads the flag), -bench and -dis with an -opt level out of
// range, -bench, -suite and -exp with a design past harness.MaxSamples,
// and every command with a negative -watchdog: each is a usage error that
// prints nothing to stdout and writes no file.
func TestJSONAndCollapsedNeedTheirCommand(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	folded := filepath.Join(t.TempDir(), "out.folded")
	for _, c := range []struct {
		flag     []string
		commands [][]string
		msg      string
	}{
		{[]string{"-json"}, [][]string{{"-exp", "T1"}, {"-suite"}, {"-profile", "fib"}, {"-dis", "fib"}, {"-list"}, {"-list", "-bench", "fib"}, {"-suite", "-bench", "fib"}, {}},
			"-json applies only to -bench"},
		{[]string{"-collapsed", folded}, [][]string{{"-bench", "fib", "-invocations", "1", "-iterations", "1"}, {"-exp", "T1"}, {"-suite"}, {"-dis", "fib"}, {"-list"}, {"-list", "-profile", "fib"}, {}},
			"-collapsed applies only to -profile"},
		{[]string{"-opt", "2"}, [][]string{{"-suite"}, {"-exp", "T1"}, {"-profile", "fib"}, {"-list"}, {"-list", "-dis", "fib"}, {"-suite", "-bench", "fib"}, {}},
			"-opt applies only to -bench and -dis"},
		{[]string{"-opt", "3"}, [][]string{{"-dis", "fib"}, {"-bench", "fib"}},
			"opt level 3 out of range 0..2"},
		{[]string{"-opt", "-1"}, [][]string{{"-dis", "fib"}},
			"opt level -1 out of range 0..2"},
		{[]string{"-vm", "reg-elide"}, [][]string{{"-suite"}, {"-exp", "T1"}, {"-dis", "fib"}, {"-suite", "-bench", "fib"}, {}},
			"-mode, -vm and -daemon-addr apply only to -bench"},
		{[]string{"-mode", "jit"}, [][]string{{"-suite"}, {"-exp", "T1"}, {"-profile", "fib"}, {"-list", "-bench", "fib"}},
			"-mode, -vm and -daemon-addr apply only to -bench"},
		{[]string{"-mode", "interp"}, [][]string{{"-suite"}, {"-dis", "fib"}, {}},
			"-mode, -vm and -daemon-addr apply only to -bench"},
		{[]string{"-daemon-addr", "127.0.0.1:1"}, [][]string{{"-suite"}, {"-exp", "T1"}, {"-list"}, {}},
			"-mode, -vm and -daemon-addr apply only to -bench"},
		{[]string{"-invocations", "4611686018427387904"}, [][]string{{"-bench", "fib"}, {"-suite"}, {"-exp", "T4"}, {"-bench", "fib", "-daemon-addr", "127.0.0.1:1"}},
			"exceeds the limit"},
		{[]string{"-iterations", "4611686018427387904"}, [][]string{{"-bench", "fib"}, {"-suite"}},
			"exceeds the limit"},
		{[]string{"-watchdog", "-1s"}, [][]string{{"-bench", "fib", "-isolate"}, {"-suite", "-isolate"}, {"-exp", "T4"}, {"-dis", "fib"}, {"-list"}},
			"negative -watchdog"},
	} {
		for _, command := range c.commands {
			args := append(append([]string{"-pybench"}, command...), c.flag...)
			var stdout, stderr strings.Builder
			cmd := exec.Command(exe, args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != exitcode.Usage {
				t.Errorf("pybench %s: %v, want exit %d", strings.Join(args[1:], " "), err, exitcode.Usage)
			}
			if stdout.Len() > 0 || !strings.Contains(stderr.String(), c.msg) {
				t.Errorf("pybench %s: stdout %q, stderr %q", strings.Join(args[1:], " "), stdout.String(), stderr.String())
			}
			if _, err := os.Stat(folded); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("pybench %s wrote %s (%v)", strings.Join(args[1:], " "), folded, err)
			}
		}
	}
}

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
		got, err := controlapi.NoiseByName(name)
		if err != nil {
			t.Fatalf("controlapi.NoiseByName(%q): %v", name, err)
		}
		if got != want {
			t.Errorf("controlapi.NoiseByName(%q) = %+v", name, got)
		}
	}
	if _, err := controlapi.NoiseByName("bogus"); err == nil {
		t.Fatal("unknown noise name must error")
	}
	none, err := controlapi.NoiseByName("none")
	if err != nil {
		t.Fatal(err)
	}
	if none != noise.None() {
		t.Fatalf("none model should be the zero (noiseless) model: %+v", none)
	}
}

// TestNoiseNoneIsNoiseless: under -noise none every measured time is the
// simulated cycles at the clock rate, bit for bit.
func TestNoiseNoneIsNoiseless(t *testing.T) {
	out := captureStdout(t, func() error {
		return doBench(benchSpec("fib", "jit", 2, 3, 0, "none"), "", "", true, noObs())
	})
	var res harness.Result
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatal(err)
	}
	hz := res.Opts.FreqGHz * 1e9
	for i, inv := range res.Invocations {
		for j, c := range inv.Cycles {
			if got, want := inv.TimesSec[j], float64(c)/hz; got != want {
				t.Fatalf("invocation %d iteration %d: %v s, want %d cycles / %v Hz = %v s", i, j, got, c, hz, want)
			}
		}
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
	if err := doExperiments("T99", core.Config{Invocations: 2, Iterations: 2}, renderText, noObs()); err == nil {
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

// TestSupervisorOptionsMapping: the campaign seed is the fault seed, which
// the supervisor salts per benchmark and mode.
func TestSupervisorOptionsMapping(t *testing.T) {
	cfg := core.Config{Seed: 99, Retries: 3, Quorum: 2, Faults: faults.Light(),
		CheckpointDir: "ckpt"}
	so := cfg.SupervisorOptions()
	if so.MaxRetries != 3 || so.Quorum != 2 || so.FaultSeed != 99 || so.Faults != faults.Light() {
		t.Fatalf("supervision policy lost in translation: %+v", so)
	}
	// The harness names each experiment's journal inside the directory.
	if so.CheckpointDir != "ckpt" {
		t.Fatalf("checkpoint directory lost in translation: %+v", so)
	}
}

// TestStorageFaultsDamageTheJournal: the storage fault kinds act on the
// -resume journal's writes. A torn=1 run counts its torn writes among its
// injected faults, and the run over its journal reports the damage.
// Without -resume the kinds are a usage error.
func TestStorageFaultsDamageTheJournal(t *testing.T) {
	dir := t.TempDir()
	spec := benchSpec("fib", "interp", 2, 2, 7, "quiet")
	spec.Faults = "torn=1"
	for run := 0; run < 2; run++ {
		out := captureStdout(t, func() error { return doBench(spec, dir, "", true, noObs()) })
		res, err := harness.ReadResultJSON(strings.NewReader(out))
		if err != nil {
			t.Fatal(err)
		}
		if sv := res.Supervision; sv.InjectedFaults == 0 {
			t.Errorf("run %d: no injected fault counted under torn=1: %s", run, sv.Summary())
		}
		if j := res.Supervision.Journal; run == 1 && (j == nil || j.Clean()) {
			t.Errorf("the run over a torn journal reports no damage: %+v", j)
		}
	}

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	cmd := exec.Command(exe, "-pybench", "-bench", "fib", "-invocations", "1", "-iterations", "1", "-faults", "torn=0.5")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != exitcode.Usage || stdout.Len() > 0 ||
		!strings.Contains(stderr.String(), "needs -resume") {
		t.Errorf("-faults torn=0.5 without -resume: %v, stdout %q, stderr %q; want exit %d",
			err, stdout.String(), stderr.String(), exitcode.Usage)
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
// journal per arm, named by the arm's experiment key, so core's pair over
// that directory (F3's runs) resumes both arms instead of re-running them,
// while -bench at the user's seed is another experiment: over the suite's
// directory it adds one journal and prints what it prints over an empty
// directory.
func TestSuiteAndBenchShareCheckpointLayout(t *testing.T) {
	dir := t.TempDir()
	cfg := core.Config{Invocations: 2, Iterations: 2, Seed: 7, Noise: noise.Quiet(), CheckpointDir: dir}
	captureStdout(t, func() error { return doSuite(cfg, renderText, noObs()) })
	suite := workloads.Suite()
	journals := func() []string {
		files, err := filepath.Glob(filepath.Join(dir, "*"))
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	if files := journals(); len(files) != 2*len(suite) {
		t.Fatalf("want %d journals in %s, got %v", 2*len(suite), dir, files)
	}

	fib, _ := workloads.ByName("fib")
	interp, jit, err := core.New(cfg).RunPair(fib, cfg.Iterations)
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range []*harness.Result{interp, jit} {
		if arm.Supervision.ResumedFrom != cfg.Invocations {
			t.Errorf("core's pair did not resume the suite's %s journal: ResumedFrom = %d, want %d",
				arm.Mode, arm.Supervision.ResumedFrom, cfg.Invocations)
		}
	}

	spec := benchSpec("fib", "interp", 2, 2, 7, "quiet")
	fresh := captureStdout(t, func() error { return doBench(spec, t.TempDir(), "", false, noObs()) })
	shared := captureStdout(t, func() error { return doBench(spec, dir, "", false, noObs()) })
	if shared != fresh {
		t.Errorf("-bench over the suite's journals:\n%s\nover an empty directory:\n%s", shared, fresh)
	}
	if files := journals(); len(files) != 2*len(suite)+1 {
		t.Errorf("-bench added %d journals, want 1", len(files)-2*len(suite))
	}
}

// suiteAndF3 renders -suite and -exp F3 under one configuration and returns
// both outputs.
func suiteAndF3(t *testing.T, cfg core.Config, style renderStyle) (suite, f3 string) {
	t.Helper()
	suite = captureStdout(t, func() error { return doSuite(cfg, style, noObs()) })
	f3 = captureStdout(t, func() error { return doExperiments("F3", cfg, style, noObs()) })
	return suite, f3
}

// csvRows parses CSV table output into rows keyed by their first cell.
func csvRows(t *testing.T, out string) map[string][]string {
	t.Helper()
	records, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	rows := map[string][]string{}
	for _, rec := range records[1:] {
		rows[rec[0]] = rec
	}
	return rows
}

// TestSuiteRowsEqualF3: -suite runs F3's pairs, so every row's speedup and
// interval equal F3's, and the Holm step can only downgrade a verdict to
// indistinguishable. At 2x2 it downgrades fib's, which F3 calls faster.
func TestSuiteRowsEqualF3(t *testing.T) {
	for _, c := range []struct {
		inv, iter  int
		downgraded string
	}{{3, 6, ""}, {2, 2, "fib"}} {
		cfg := core.Config{Invocations: c.inv, Iterations: c.iter, Seed: 7, Noise: noise.Quiet()}
		suiteOut, f3Out := suiteAndF3(t, cfg, renderCSV)
		suite, f3 := csvRows(t, suiteOut), csvRows(t, f3Out)
		if len(suite) != len(f3) || len(suite) != len(workloads.Suite())+1 {
			t.Fatalf("%dx%d: %d -suite rows, %d F3 rows", c.inv, c.iter, len(suite), len(f3))
		}
		for name, fr := range f3 {
			sr := suite[name]
			// F3: benchmark, speedup, CI lo, CI hi, verdict; -suite puts the
			// p-value before its verdict.
			if sr == nil || !reflect.DeepEqual(sr[1:4], fr[1:4]) {
				t.Errorf("%dx%d %s: -suite %v, F3 %v", c.inv, c.iter, name, sr, fr)
				continue
			}
			if name == "GEOMEAN" {
				continue
			}
			sv, fv := sr[5], fr[4]
			if sv != fv && sv != "indistinguishable" {
				t.Errorf("%dx%d %s: -suite verdict %q, F3 %q", c.inv, c.iter, name, sv, fv)
			}
			if name == c.downgraded && (sv != "indistinguishable" || fv == sv) {
				t.Errorf("%dx%d %s: -suite verdict %q, F3 %q; want a Holm downgrade",
					c.inv, c.iter, name, sv, fv)
			}
		}
	}
}

// TestF3AndSuiteFootnoteLostWork: under a fault policy that costs every
// benchmark retried or dropped invocations, F3 and -suite print one
// footnote per degraded arm, in the same words, and those are the arms
// whose supervision degraded.
func TestF3AndSuiteFootnoteLostWork(t *testing.T) {
	fp, err := faults.Parse("panic=0.4")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Invocations: 4, Iterations: 4, Seed: 7, Noise: noise.Default(), Faults: fp, Retries: 2, Quorum: 2}
	var want []string
	engine := core.New(cfg)
	for _, b := range engine.Config().Benchmarks {
		interp, jit, err := engine.RunPair(b, cfg.Iterations)
		if err != nil {
			t.Fatal(err)
		}
		for _, arm := range []*harness.Result{interp, jit} {
			if arm.Supervision.Degraded() {
				want = append(want, fmt.Sprintf("note: %s/%s: %s", b.Name, arm.Mode, arm.Supervision.Summary()))
			}
		}
		if !strings.Contains(strings.Join(want, "\n"), "note: "+b.Name+"/") {
			t.Errorf("%s: no arm lost work; the fault policy no longer exercises the footnotes", b.Name)
		}
	}
	lostWork := func(out string) []string {
		var notes []string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "note: ") && !strings.HasPrefix(line, "note: supervised:") {
				notes = append(notes, line)
			}
		}
		return notes
	}
	suite, f3 := suiteAndF3(t, cfg, renderText)
	if got := lostWork(f3); !reflect.DeepEqual(got, want) {
		t.Errorf("F3 footnotes:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if got := lostWork(suite); !reflect.DeepEqual(got, want) {
		t.Errorf("-suite footnotes:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestSuiteTraceAndMetrics: -suite's -trace and -metrics reach the runner
// core's pairs run on.
func TestSuiteTraceAndMetrics(t *testing.T) {
	checkTraceAndMetrics(t, func(cfg core.Config, o *observability) error {
		return doSuite(cfg, renderText, o)
	})
}

// TestExpTraceAndMetrics: -exp's -trace and -metrics reach the runner
// every experiment runs on. A9 runs two interpreter arms per benchmark.
func TestExpTraceAndMetrics(t *testing.T) {
	checkTraceAndMetrics(t, func(cfg core.Config, o *observability) error {
		return doExperiments("A9", cfg, renderText, o)
	})
}

// checkTraceAndMetrics runs a command of two arms per suite benchmark at
// 2x2 with -trace and -metrics. One simulation per arm: a module-setup
// span and a benchmark span per arm, a replay span per invocation.
func checkTraceAndMetrics(t *testing.T, run func(core.Config, *observability) error) {
	t.Helper()
	traceFile := filepath.Join(t.TempDir(), "run.trace.json")
	o := newObservability(traceFile, true)
	cfg := core.Config{Invocations: 2, Iterations: 2, Seed: 7, Noise: noise.Quiet()}
	out := captureStdout(t, func() error {
		if err := run(cfg, o); err != nil {
			return err
		}
		return o.finish(os.Stdout, true)
	})
	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatalf("trace file not written: %v", err)
	}
	if _, err := trace.Validate(data); err != nil {
		t.Fatalf("emitted trace is not schema-valid: %v", err)
	}
	counts := map[string]int{}
	for _, ev := range o.obs.Trace.Events() {
		if ev.Phase != "X" {
			continue
		}
		key := ev.Cat
		if key == trace.CatPhase {
			key = ev.Name
		}
		counts[key]++
	}
	arms := 2 * len(workloads.Suite())
	for key, want := range map[string]int{trace.CatSuite: 1, trace.CatBenchmark: arms,
		"module-setup": arms, "replay": arms * cfg.Invocations} {
		if counts[key] != want {
			t.Errorf("%d %q spans, want %d", counts[key], key, want)
		}
	}
	if want := fmt.Sprintf("harness_invocations_total %d", arms*cfg.Invocations); !strings.Contains(out, want) {
		t.Errorf("metrics snapshot missing %q:\n%s", want, out)
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
	names := controlapi.BenchmarkNames()
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
