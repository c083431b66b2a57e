// Command pybench regenerates the paper's tables and figures and runs
// individual benchmark experiments from the command line.
//
// Usage:
//
//	pybench -list                         # list benchmarks and experiments
//	pybench -exp T2                       # regenerate one table/figure
//	pybench -exp all                      # regenerate everything
//	pybench -bench nbody -mode jit        # run one experiment and summarize
//	pybench -bench nbody -json            # raw per-invocation data as JSON
//	pybench -suite                        # Holm-corrected suite comparison
//	pybench -profile dictstress           # per-opcode execution profile
//	pybench -dis fib                      # bytecode disassembly
//	pybench -exp F3 -csv                  # CSV output (also: -markdown)
//
// Scale/noise knobs: -invocations, -iterations, -trials, -seed, -noise
// {default,quiet,noisy,none}.
//
// Fault-tolerance knobs (supervised execution): -faults {none,light,heavy,
// chaos,kind=prob,...}, -retries N, -quorum K, -resume DIR. With -resume, an
// interrupted run picks up where it left off, skipping completed
// invocations; the same seed always reproduces the same fault schedule.
// The storage kinds (torn, badrecord, enospc) damage the checkpoint
// journal's writes, so they need -resume.
//
// Crash-isolation knobs: -isolate runs each experiment's VM in a
// watchdogged worker subprocess, which returns the noise-free run while
// this process applies each invocation's noise (a crash or hang costs one
// attempt, never the campaign; the sample set is bit-identical to
// in-process execution); -watchdog bounds each request's wall time before
// the child is killed.
//
// Remote execution: -daemon-addr HOST:PORT submits the -bench campaign to
// a pybenchd daemon instead of running it in-process. The daemon executes
// the same controlapi.Execute path this binary uses locally, so the
// sample set is bit-identical either way; progress streams to stderr and
// the rendered table (or -json document) is unchanged.
//
// Observability knobs: -trace FILE writes a Chrome trace-event timeline
// (open in Perfetto or chrome://tracing); -metrics collects harness
// self-telemetry (timer calibration, GC interference, retry/cache
// activity) and prints a snapshot (with -json it rides under the "metrics"
// key); -profile prints a per-line cost attribution, and -collapsed FILE
// additionally writes folded call stacks for flamegraph tools; -version
// prints the producer identification stamped into emitted artifacts.
// -trace and -metrics go only with -bench, -suite or -exp, -opt only with
// -bench or -dis, -json, -mode, -vm and -daemon-addr only with -bench, and
// -collapsed only with -profile: beside any other command each is a usage
// error.
//
// Exit codes: 0 = success; 2 = usage; 3 = infrastructure failure; 4 = run
// degraded below quorum. A remote campaign exits with the code its
// daemon reports.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/client"
	"repro/internal/controlapi"
	"repro/internal/core"
	"repro/internal/exitcode"
	"repro/internal/faults"
	"repro/internal/harness"
	"repro/internal/methodology"
	"repro/internal/metrics"
	"repro/internal/minipy"
	"repro/internal/profile"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/version"
	"repro/internal/vm"
	"repro/internal/workloads"
)

func main() {
	// The hidden re-exec mode: `pybench -worker` turns this process into a
	// protocol server executing invocation orders from a supervising
	// pybench over stdin/stdout. Handled before flag parsing so it never
	// appears in -help — it is plumbing, not interface.
	if len(os.Args) == 2 && os.Args[1] == "-worker" {
		if err := harness.WorkerMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "pybench -worker:", err)
			os.Exit(exitcode.Infra)
		}
		return
	}
	var (
		list        = flag.Bool("list", false, "list benchmarks and experiment ids")
		exp         = flag.String("exp", "", "experiment id (T1..T5, F1..F8, A1..A9) or 'all'")
		bench       = flag.String("bench", "", "run a single benchmark experiment")
		mode        = flag.String("mode", "interp", "engine for -bench: interp or jit (a usage error with any other command)")
		invocations = flag.Int("invocations", 0, "invocations per experiment (0 = default)")
		iterations  = flag.Int("iterations", 0, "iterations per invocation (0 = default)")
		trials      = flag.Int("trials", 0, "synthetic trials for T4/F8 (0 = default)")
		seed        = flag.Uint64("seed", 0, "experiment seed (0 = default)")
		noiseName   = flag.String("noise", "default", "noise model: default, quiet, noisy, none")
		csv         = flag.Bool("csv", false, "emit tables as CSV")
		markdown    = flag.Bool("markdown", false, "emit tables as Markdown")
		suite       = flag.Bool("suite", false, "rigorous interp-vs-JIT suite comparison with Holm correction")
		jsonOut     = flag.Bool("json", false, "with -bench: dump the raw result (all invocations) as JSON (a usage error with any other command)")
		profileName = flag.String("profile", "", "print the per-line and per-opcode cost profile of a benchmark")
		dis         = flag.String("dis", "", "disassemble a benchmark's bytecode")
		faultsSpec  = flag.String("faults", "", "fault injection: none, light, heavy, chaos, or kind=prob list (kinds: panic, hang, corrupt, checksum, compile, kill, stall; torn, badrecord and enospc, which need -resume)")
		retries     = flag.Int("retries", 0, "per-invocation retry budget for supervised runs")
		quorum      = flag.Int("quorum", 0, "minimum successful invocations per experiment (0 = all)")
		resume      = flag.String("resume", "", "checkpoint directory: save progress after every invocation and resume interrupted runs")
		traceOut    = flag.String("trace", "", "with -bench, -suite or -exp: write a Chrome trace-event JSON timeline of the run to FILE (open in Perfetto)")
		metricsOn   = flag.Bool("metrics", false, "with -bench, -suite or -exp: collect harness self-telemetry and print a snapshot (with -json: included under the metrics key)")
		collapsed   = flag.String("collapsed", "", "with -profile: also write folded call stacks to FILE (flamegraph.pl / speedscope format; a usage error with any other command)")
		optLevel    = flag.Int("opt", 0, "bytecode-optimization level for -bench/-dis: 0 = off, 1 = peephole, 2 = +superinstructions (changes the simulated opcode stream; distinct experiment arms, see ablation A7; a usage error with any other command)")
		vmTier      = flag.String("vm", "", "executed stream for -bench: reg (default) or reg-elide (move-elided stream, ablation A9; a usage error with any other command)")
		isolate     = flag.Bool("isolate", false, "simulate each experiment in a watchdogged worker subprocess; this process applies the noise (crash isolation; the sample set is bit-identical to in-process execution)")
		watchdog    = flag.Duration("watchdog", 0, "with -isolate: per-request deadline before a hung worker is killed (0 = 30s default)")
		daemonAddr  = flag.String("daemon-addr", "", "with -bench: submit the campaign to a pybenchd daemon at HOST:PORT instead of running in-process (sample set is bit-identical; a usage error with any other command)")
		showVersion = flag.Bool("version", false, "print version, Go version, and platform, then exit")
	)
	flag.Usage = usage
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String())
		return
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "pybench: unexpected argument %q\n\n", flag.Arg(0))
		flag.Usage()
		os.Exit(exitcode.Usage)
	}
	// Some flags are read by one or two commands only. Beside any other
	// command they would do nothing, so giving them is a usage error,
	// refused before any work. The commands take precedence in the order
	// of the switch below: -list, -profile and -dis come before -suite,
	// which comes before -bench.
	ahead := *list || *profileName != "" || *dis != ""
	runsProfile := !*list && *profileName != ""
	runsDis := !*list && !runsProfile && *dis != ""
	runsBench := !ahead && !*suite && *bench != ""
	given := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { given[f.Name] = true })
	refuse := func(ok bool, msg string, flags ...string) {
		for _, name := range flags {
			if given[name] && !ok {
				fatal(usageError{errors.New(msg)})
			}
		}
	}
	refuse(!ahead && (*suite || *bench != "" || *exp != ""), "-trace and -metrics apply only to -bench, -suite and -exp", "trace", "metrics")
	refuse(runsBench, "-json applies only to -bench", "json")
	refuse(runsProfile, "-collapsed applies only to -profile", "collapsed")
	refuse(runsBench || runsDis, "-opt applies only to -bench and -dis", "opt")
	refuse(runsBench, "-mode, -vm and -daemon-addr apply only to -bench", "mode", "vm", "daemon-addr")
	if *optLevel < 0 || *optLevel > minipy.MaxOptLevel {
		fatal(usageError{fmt.Errorf("opt level %d out of range 0..%d", *optLevel, minipy.MaxOptLevel)})
	}
	if err := harness.CheckDesign(*invocations, *iterations); err != nil {
		fatal(usageError{err})
	}

	np, err := controlapi.NoiseByName(*noiseName)
	if err != nil {
		fatal(usageError{err})
	}
	fp, err := faults.Parse(*faultsSpec)
	if err != nil {
		fatal(usageError{err})
	}
	// A daemon journals every campaign; a local run only with -resume.
	if st := fp.Storage(); st.Enabled() && *resume == "" && *daemonAddr == "" {
		fatal(usageError{fmt.Errorf("-faults %s damages checkpoint journal writes and needs -resume DIR", st)})
	}
	if *resume != "" {
		if err := os.MkdirAll(*resume, 0o755); err != nil {
			fatal(fmt.Errorf("creating checkpoint dir: %w", err))
		}
	}
	cfg := core.Config{
		Seed:          *seed,
		Invocations:   *invocations,
		Iterations:    *iterations,
		Trials:        *trials,
		Noise:         np,
		Retries:       *retries,
		Quorum:        *quorum,
		Faults:        fp,
		CheckpointDir: *resume,
		Isolation: harness.IsolationOptions{
			Enabled:  *isolate,
			Watchdog: *watchdog,
		},
	}

	style := renderText
	if *csv {
		style = renderCSV
	}
	if *markdown {
		style = renderMarkdown
	}
	obs := newObservability(*traceOut, *metricsOn)

	switch {
	case *list:
		doList()
	case *profileName != "":
		if err := doProfile(*profileName, *collapsed); err != nil {
			fatal(err)
		}
	case *dis != "":
		if err := doDisassemble(*dis, *optLevel); err != nil {
			fatal(err)
		}
	case *suite:
		if err := doSuite(cfg, style, obs); err != nil {
			fatal(err)
		}
		if err := obs.finish(os.Stdout, true); err != nil {
			fatal(err)
		}
	case *bench != "":
		// The -bench path is a campaign of one benchmark: the same
		// CampaignSpec a remote client POSTs to pybenchd, executed through
		// the same controlapi.Execute — locally by default, remotely with
		// -daemon-addr. One spec, one execution semantics, two transports.
		spec := controlapi.CampaignSpec{
			Benchmarks:  []string{*bench},
			Mode:        *mode,
			Invocations: *invocations,
			Iterations:  *iterations,
			Seed:        *seed,
			Noise:       *noiseName,
			Opt:         *optLevel,
			VM:          *vmTier,
			Faults:      *faultsSpec,
			Retries:     *retries,
			Quorum:      *quorum,
			Isolate:     *isolate,
			WatchdogMs:  watchdog.Milliseconds(),
		}
		if err := doBench(spec, *resume, *daemonAddr, *jsonOut, obs); err != nil {
			fatal(err)
		}
		if err := obs.finish(os.Stdout, !*jsonOut); err != nil {
			fatal(err)
		}
	case *exp != "":
		if err := doExperiments(*exp, cfg, style, obs); err != nil {
			fatal(err)
		}
		if err := obs.finish(os.Stdout, true); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(exitcode.Usage)
	}
}

// usageError marks a bad-input failure (exit 2 in the taxonomy).
type usageError struct{ error }

// usage is the custom flag.Usage: flags plus the benchmark inventory, so a
// mistyped invocation tells the user what they can actually run.
func usage() {
	out := flag.CommandLine.Output()
	fmt.Fprintf(out, "usage: pybench [flags]\n\nFlags:\n")
	flag.PrintDefaults()
	fmt.Fprintf(out, "\nBenchmarks: %s\n", strings.Join(controlapi.BenchmarkNames(), ", "))
	fmt.Fprintf(out, "Experiments: %v\nRun 'pybench -list' for descriptions.\n", core.ExperimentIDs())
}

// unknownBenchmark builds the error for a benchmark name that resolves to
// nothing: non-zero exit with the full inventory, not a bare print.
func unknownBenchmark(name string) error {
	return usageError{fmt.Errorf("unknown benchmark %q; available: %s (run 'pybench -list' for descriptions)",
		name, strings.Join(controlapi.BenchmarkNames(), ", "))}
}

// renderStyle selects the table output format.
type renderStyle int

const (
	renderText renderStyle = iota
	renderCSV
	renderMarkdown
)

func emit(out fmt.Stringer, style renderStyle) {
	if tbl, ok := out.(*report.Table); ok {
		switch style {
		case renderCSV:
			tbl.CSV(os.Stdout)
			return
		case renderMarkdown:
			tbl.Markdown(os.Stdout)
			fmt.Println()
			return
		}
	}
	fmt.Println(out.String())
}

// observability owns the CLI's trace/metrics lifecycle: it builds the
// harness.Observer from the flags, opens the run-level suite span, and at
// exit exports the trace file and prints the metrics snapshot.
type observability struct {
	obs       harness.Observer
	traceFile string
	metricsOn bool
	suiteSpan trace.Span
}

// newObservability wires the requested sinks. The producer string is
// stamped into the trace metadata so artifacts record what emitted them.
func newObservability(traceFile string, metricsOn bool) *observability {
	o := &observability{traceFile: traceFile, metricsOn: metricsOn}
	if traceFile != "" {
		o.obs.Trace = trace.New()
		o.obs.Trace.SetMeta("producer", version.Producer())
	}
	if metricsOn {
		o.obs.Metrics = metrics.NewRegistry()
		metrics.CalibrateTimer(o.obs.Metrics)
	}
	return o
}

// attach hooks the sinks into a runner and opens the suite-level span.
func (o *observability) attach(r *harness.Runner, suiteName string) {
	r.SetObserver(o.obs)
	if o.obs.Trace != nil {
		o.suiteSpan = o.obs.Trace.Begin(trace.CatSuite, suiteName)
	}
}

// finish closes the suite span, writes the trace file, and prints the
// metrics snapshot (text exposition) to w. printMetrics is false in -json
// mode, where the snapshot already rides inside the result JSON and a text
// trailer would corrupt the stream.
func (o *observability) finish(w *os.File, printMetrics bool) error {
	o.suiteSpan.End()
	if o.obs.Trace != nil {
		f, err := os.Create(o.traceFile)
		if err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		if err := o.obs.Trace.Export(f); err != nil {
			//benchlint:allow uncheckederr — cleanup; the Export error wins
			f.Close()
			return fmt.Errorf("writing trace: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "pybench: trace written to %s (%d events)\n",
			o.traceFile, o.obs.Trace.Len())
	}
	if o.metricsOn && printMetrics {
		fmt.Fprintln(w)
		return o.obs.Metrics.Snapshot().WriteText(w)
	}
	return nil
}

// doSuite runs the rigorous methodology across the whole suite with
// family-wise (Holm–Bonferroni) error control. Its pairs are core's, as
// F3's are: the same design, seeds and supervision policy, so every row's
// speedup and interval equal F3's, and the Holm step can only downgrade a
// verdict to indistinguishable.
func doSuite(cfg core.Config, style renderStyle, o *observability) error {
	engine := core.New(cfg)
	cfg = engine.Config()
	o.attach(engine.Runner(), "suite")
	var names, lost []string
	var baselines, treatments []stats.HierarchicalSample
	for _, b := range cfg.Benchmarks {
		interp, jit, err := engine.RunPair(b, cfg.Iterations)
		if err != nil {
			return err
		}
		names = append(names, b.Name)
		baselines = append(baselines, interp.Hierarchical())
		treatments = append(treatments, jit.Hierarchical())
		lost = append(lost, core.LostWork(interp, jit)...)
	}
	results := methodology.CompareSuite(names, baselines, treatments,
		methodology.Rigorous{Seed: cfg.Seed}, 0.05)
	t := report.NewTable(
		fmt.Sprintf("Suite comparison: JIT vs interpreter (%d×%d, Holm at α=0.05)", cfg.Invocations, cfg.Iterations),
		"benchmark", "speedup", "CI lo", "CI hi", "p-value", "verdict")
	var speedups []float64
	for _, r := range results {
		t.AddRow(r.Benchmark, r.Speedup, r.CI.Lo, r.CI.Hi, r.PValue, r.Verdict.String())
		speedups = append(speedups, r.Speedup)
	}
	t.AddRow("GEOMEAN", stats.GeoMean(speedups), "", "", "", "")
	t.Caption = "Verdicts are Holm–Bonferroni adjusted: family-wise false-positive rate ≤ 5%."
	if cfg.Supervised() {
		t.AddFootnote("supervised: faults=%s, retries=%d, quorum=%d",
			cfg.Faults, cfg.Retries, cfg.Quorum)
	}
	t.Footnotes = append(t.Footnotes, lost...)
	emit(t, style)
	return nil
}

// fatal prints the error and exits with its taxonomy code: usage errors
// (including invalid campaign specs) exit 2, a run degraded below quorum 4, and everything else — I/O, environment,
// subprocess plumbing — 3 (infrastructure). Errors that carry their own
// mapping (daemon API errors, remote campaign outcomes) exit with it.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pybench:", err)
	var ue usageError
	var se *controlapi.SpecError
	var ec interface{ ExitCode() int }
	switch {
	case errors.As(err, &ue), errors.As(err, &se):
		os.Exit(exitcode.Usage)
	case errors.Is(err, harness.ErrQuorum):
		os.Exit(exitcode.Degraded)
	case errors.As(err, &ec):
		os.Exit(ec.ExitCode())
	}
	os.Exit(exitcode.Infra)
}

func doList() {
	t := report.NewTable("Benchmarks (canonical suite)", "name", "class", "description")
	for _, b := range workloads.Suite() {
		t.AddRow(b.Name, string(b.Class), b.Description)
	}
	fmt.Print(t.String())
	fmt.Println()
	x := report.NewTable("Extended workloads (usable with -bench/-profile/-dis)",
		"name", "class", "description")
	for _, b := range workloads.Extended() {
		x.AddRow(b.Name, string(b.Class), b.Description)
	}
	fmt.Print(x.String())
	fmt.Println()
	fmt.Println("Experiments:", core.ExperimentIDs())
}

// doExperiments regenerates the paper's tables and figures; every run of
// every experiment goes through the engine's runner and its observer.
func doExperiments(id string, cfg core.Config, style renderStyle, o *observability) error {
	engine := core.New(cfg)
	o.attach(engine.Runner(), "exp "+id)
	ids := []string{id}
	if id == "all" {
		ids = core.ExperimentIDs()
	}
	for _, x := range ids {
		out, err := engine.Experiment(x)
		if err != nil {
			return err
		}
		emit(out, style)
	}
	return nil
}

// doBench runs a single-benchmark campaign through the shared
// controlapi.Execute path — in-process by default (supervision with the
// zero policy is free, so -bench always runs supervised and always
// reports its effective N), or submitted to a pybenchd daemon when
// daemonAddr is set. Both routes yield the same *harness.Result by
// construction; rendering is identical.
func doBench(spec controlapi.CampaignSpec, checkpointDir, daemonAddr string, jsonOut bool, o *observability) error {
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		return err
	}
	var res *harness.Result
	if daemonAddr != "" {
		r, err := runRemote(daemonAddr, spec)
		if err != nil {
			return err
		}
		res = r
	} else {
		runner := harness.NewRunner()
		o.attach(runner, spec.Benchmarks[0]+"/"+spec.Mode)
		results, err := controlapi.Execute(spec, controlapi.ExecOptions{
			Runner:        runner,
			CheckpointDir: checkpointDir,
		})
		if err != nil {
			if n := len(results); n > 0 && results[n-1].Supervision != nil {
				fmt.Fprintln(os.Stderr, "pybench:", results[n-1].Supervision.Summary())
			}
			return err
		}
		res = results[0]
	}
	if jsonOut {
		return res.WriteJSON(os.Stdout)
	}
	return renderBenchResult(res, spec)
}

// runRemote submits the campaign to a pybenchd daemon, streams its
// progress to stderr, and returns the final result — the same value the
// local path computes, fetched over the wire.
func runRemote(addr string, spec controlapi.CampaignSpec) (*harness.Result, error) {
	cl := client.New(addr, client.WithTenant(spec.Tenant))
	ctx := context.Background()
	st, err := cl.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "pybench: campaign %s accepted by daemon %s\n", st.ID, addr)
	final, err := cl.Wait(ctx, st.ID, func(ev client.Event) {
		if ev.Type != controlapi.EventBenchmark {
			return
		}
		var bp controlapi.BenchmarkProgress
		if json.Unmarshal(ev.Data, &bp) != nil { //benchlint:allow uncheckederr — progress display only
			return
		}
		verb := "running"
		if bp.Done {
			verb = "finished"
		}
		fmt.Fprintf(os.Stderr, "pybench: daemon: %s %s (%d/%d)\n",
			bp.Benchmark, verb, bp.Index+1, bp.Total)
	})
	if err != nil {
		// A degraded/failed remote campaign still carries its partial
		// supervision report; surface it like the local path does.
		var ce *client.CampaignError
		if errors.As(err, &ce) && final != nil {
			if n := len(final.Results); n > 0 && final.Results[n-1].Supervision != nil {
				fmt.Fprintln(os.Stderr, "pybench:", final.Results[n-1].Supervision.Summary())
			}
		}
		return nil, err
	}
	if len(final.Results) == 0 {
		return nil, fmt.Errorf("daemon returned no results for campaign %s", st.ID)
	}
	return final.Results[0], nil
}

// renderBenchResult prints the -bench summary table from a campaign
// result, local or remote.
func renderBenchResult(res *harness.Result, spec controlapi.CampaignSpec) error {
	hs, srep := stats.Sanitize(res.Hierarchical())
	means := hs.InvocationMeans()
	ci := stats.KaliberaMeanCI(hs, methodology.Confidence)
	vd := stats.DecomposeVariance(hs)
	rep := methodology.ClassifyExperiment(hs)
	sv := res.Supervision

	t := report.NewTable(fmt.Sprintf("%s / %s (%d×%d, seed %d)",
		spec.Benchmarks[0], spec.Mode, spec.Invocations, spec.Iterations, spec.Seed),
		"metric", "value")
	t.AddRow("mean (ms)", 1e3*stats.Mean(means))
	t.AddRow("median (ms)", 1e3*stats.Median(means))
	t.AddRow("CoV invocations (%)", 100*stats.CoV(means))
	t.AddRow("95% CI (ms)", fmt.Sprintf("[%s, %s]",
		report.FormatFloat(1e3*ci.Lo), report.FormatFloat(1e3*ci.Hi)))
	t.AddRow("between-invocation var frac (%)", 100*vd.BetweenFraction())
	t.AddRow("steady-state class", rep.Class.String())
	t.AddRow("mean steady start (iter)", rep.MeanSteadyStart)
	t.AddRow("effective N", fmt.Sprintf("%d/%d", hs.EffectiveInvocations(), sv.Planned))
	t.AddRow("retries / dropped / quarantined",
		fmt.Sprintf("%d / %d / %d", sv.Retries, sv.Dropped, sv.QuarantinedSamples))
	if len(res.Invocations) > 0 {
		t.AddRow("checksum", res.Invocations[0].Checksum)
	}
	if sv.Degraded() || sv.InjectedFaults > 0 {
		t.AddFootnote("%s", sv.Summary())
	}
	if !srep.Clean() {
		t.AddFootnote("analysis sanitized: %d samples quarantined, %d invocations dropped",
			srep.QuarantinedSamples, srep.DroppedInvocations)
	}
	fmt.Print(t.String())
	return nil
}

// doProfile runs one run() call of a benchmark under the VM profiler and
// prints per-line, per-function, and per-opcode cost attribution. The
// profiler consumes the engine's own cost accounting, so its total is
// checked against the measured counter delta and the reconciliation is
// reported in the caption (exact for the unprobed interpreter).
func doProfile(name, collapsedPath string) error {
	b, ok := workloads.ByName(name)
	if !ok {
		return unknownBenchmark(name)
	}
	code, err := b.Compile()
	if err != nil {
		return err
	}
	prof := profile.New()
	engine := vm.New(vm.Config{Tracer: prof})
	if _, err := engine.RunModule(code); err != nil {
		return err
	}
	prof.Reset() // profile the measured iteration only, not module setup
	before := engine.CountersSnapshot()
	if _, err := engine.CallGlobal("run"); err != nil {
		return err
	}
	delta := engine.CountersSnapshot().Sub(before)
	ops, cycles := prof.Total()

	t := report.NewTable(fmt.Sprintf("Line profile: %s (one run() call, interpreter)", name),
		"line", "cycles", "% of cycles", "ops", "source")
	for _, al := range prof.Annotate(b.Source) {
		t.AddRow(al.Line, al.Cycles,
			fmt.Sprintf("%.1f", 100*float64(al.Cycles)/float64(cycles)),
			al.Ops, al.Source)
	}
	recon := 100.0
	if delta.Cycles > 0 {
		recon = 100 * float64(cycles) / float64(delta.Cycles)
	}
	t.Caption = fmt.Sprintf("%d ops, %d attributed cycles; engine measured %d cycles (%.2f%% reconciled).",
		ops, cycles, delta.Cycles, recon)
	fmt.Print(t.String())
	fmt.Println()

	ft := report.NewTable("By function", "function", "cycles", "% of cycles", "ops")
	for _, fc := range prof.FuncCosts() {
		ft.AddRow(fc.Func, fc.Cycles,
			fmt.Sprintf("%.1f", 100*float64(fc.Cycles)/float64(cycles)), fc.Ops)
	}
	fmt.Print(ft.String())
	fmt.Println()

	ot := report.NewTable("By opcode (top 15)", "opcode", "count", "cycles", "% of cycles")
	for i, oc := range prof.OpCosts() {
		if i == 15 {
			break
		}
		ot.AddRow(oc.Op.String(), oc.Count, oc.Cycles,
			fmt.Sprintf("%.1f", 100*float64(oc.Cycles)/float64(cycles)))
	}
	fmt.Print(ot.String())

	if collapsedPath != "" {
		f, err := os.Create(collapsedPath)
		if err != nil {
			return fmt.Errorf("writing collapsed stacks: %w", err)
		}
		if err := prof.WriteCollapsed(f); err != nil {
			//benchlint:allow uncheckederr — cleanup; the write error wins
			f.Close()
			return fmt.Errorf("writing collapsed stacks: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("writing collapsed stacks: %w", err)
		}
		fmt.Fprintf(os.Stderr, "pybench: collapsed stacks written to %s (%d unique stacks)\n",
			collapsedPath, len(prof.Stacks()))
	}
	return nil
}

// doDisassemble prints the bytecode that -bench runs for a benchmark at
// the given optimization level: the code cache's entry.
func doDisassemble(name string, opt int) error {
	b, ok := workloads.ByName(name)
	if !ok {
		return unknownBenchmark(name)
	}
	entry, _, err := workloads.NewCodeCache().GetOpt(b, opt)
	if err != nil {
		return err
	}
	fmt.Print(entry.Code.Disassemble())
	return nil
}
