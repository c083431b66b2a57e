// Package repro's top-level bench harness regenerates every table and
// figure of the reconstructed evaluation (see DESIGN.md §3) as a testing.B
// benchmark, plus the ablations and a few engine micro-benchmarks. Run:
//
//	go test -bench=. -benchmem
//
// Each experiment bench executes the full experiment once per b.N iteration
// at a scale reduced from the published defaults (6×16 instead of 10×30) so
// the whole harness completes in minutes; `cmd/pybench -exp <id>` runs the
// full-scale version.
package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/noise"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// benchConfig is the reduced-scale configuration for the bench harness.
func benchConfig() core.Config {
	return core.Config{
		Noise:            noise.Default(),
		Seed:             42,
		Invocations:      6,
		Iterations:       16,
		WarmupIterations: 40,
		Trials:           60,
	}
}

// runExperiment drives one experiment id as a benchmark body.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		e := core.New(benchConfig())
		out, err := e.Experiment(id)
		if err != nil {
			b.Fatalf("experiment %s: %v", id, err)
		}
		if len(out.String()) == 0 {
			b.Fatalf("experiment %s produced no output", id)
		}
	}
}

// ---- One bench per table ----

func BenchmarkTable1SuiteOverview(b *testing.B)    { runExperiment(b, "T1") }
func BenchmarkTable2TimingStatistics(b *testing.B) { runExperiment(b, "T2") }
func BenchmarkTable3SteadyState(b *testing.B)      { runExperiment(b, "T3") }
func BenchmarkTable4MisleadingRates(b *testing.B)  { runExperiment(b, "T4") }
func BenchmarkTable5Characterization(b *testing.B) { runExperiment(b, "T5") }

// ---- One bench per figure ----

func BenchmarkFigure1WarmupCurves(b *testing.B)     { runExperiment(b, "F1") }
func BenchmarkFigure2RunToRunSpread(b *testing.B)   { runExperiment(b, "F2") }
func BenchmarkFigure3SpeedupCIs(b *testing.B)       { runExperiment(b, "F3") }
func BenchmarkFigure4CIConvergence(b *testing.B)    { runExperiment(b, "F4") }
func BenchmarkFigure5WarmupHandling(b *testing.B)   { runExperiment(b, "F5") }
func BenchmarkFigure6TopDown(b *testing.B)          { runExperiment(b, "F6") }
func BenchmarkFigure7VarianceDecomp(b *testing.B)   { runExperiment(b, "F7") }
func BenchmarkFigure8WrongConclusions(b *testing.B) { runExperiment(b, "F8") }

// ---- Ablations (DESIGN.md §5) ----

func BenchmarkAblationDispatch(b *testing.B)     { runExperiment(b, "A1") }
func BenchmarkAblationJITThreshold(b *testing.B) { runExperiment(b, "A2") }
func BenchmarkAblationCIMethod(b *testing.B)     { runExperiment(b, "A3") }
func BenchmarkAblationChangepoint(b *testing.B)  { runExperiment(b, "A4") }

// ---- Engine micro-benchmarks (Go-level wall-clock of the simulator) ----

// benchEngine measures the wall-clock cost of one run() call of a workload
// under the given engine, reporting simulated-op throughput.
func benchEngine(b *testing.B, name string, mode vm.Mode, counters bool) {
	b.Helper()
	wl, ok := workloads.ByName(name)
	if !ok {
		b.Fatalf("unknown workload %s", name)
	}
	runner := harness.NewRunner()
	// One invocation pre-run to size the op count for the metric.
	pre, err := runner.Run(wl, harness.Options{
		Mode: mode, Invocations: 1, Iterations: 1, Noise: noise.None(),
		WithCounters: counters,
	})
	if err != nil {
		b.Fatal(err)
	}
	opsPerIter := pre.Invocations[0].Steps[0]

	code, err := wl.Compile()
	if err != nil {
		b.Fatal(err)
	}
	engine := vm.New(vm.Config{Mode: mode})
	if _, err := engine.RunModule(code); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.CallGlobal("run"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(opsPerIter), "simops/iter")
}

func BenchmarkEngineInterpFib(b *testing.B)   { benchEngine(b, "fib", vm.ModeInterp, false) }
func BenchmarkEngineInterpNBody(b *testing.B) { benchEngine(b, "nbody", vm.ModeInterp, false) }
func BenchmarkEngineInterpDict(b *testing.B)  { benchEngine(b, "dictstress", vm.ModeInterp, false) }
func BenchmarkEngineJITNBody(b *testing.B)    { benchEngine(b, "nbody", vm.ModeJIT, false) }
func BenchmarkEngineJITRichards(b *testing.B) { benchEngine(b, "richards", vm.ModeJIT, false) }

// BenchmarkEngineWithCounters quantifies the probe overhead of the
// hardware-counter simulation.
func BenchmarkEngineWithCounters(b *testing.B) {
	wl, _ := workloads.ByName("nbody")
	runner := harness.NewRunner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.Run(wl, harness.Options{
			Invocations: 1, Iterations: 2, Noise: noise.None(), WithCounters: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompile measures front-end throughput (lex+parse+compile) on the
// largest suite source.
func BenchmarkCompile(b *testing.B) {
	wl, _ := workloads.ByName("richards")
	b.SetBytes(int64(len(wl.Source)))
	for i := 0; i < b.N; i++ {
		if _, err := wl.Compile(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationNoiseModel(b *testing.B) { runExperiment(b, "A5") }

func BenchmarkAblationInlineCache(b *testing.B) { runExperiment(b, "A6") }
