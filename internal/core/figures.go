package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/harness"
	"repro/internal/methodology"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// warmupExemplars picks three representative benchmarks for warmup plots:
// a numeric loop kernel, an object workload, and the guard-hostile one.
func (e *Engine) warmupExemplars() []workloads.Benchmark {
	want := []string{"nbody", "richards", "branchy"}
	var out []workloads.Benchmark
	for _, name := range want {
		for _, b := range e.cfg.Benchmarks {
			if b.Name == name {
				out = append(out, b)
			}
		}
	}
	if len(out) == 0 {
		// Restricted suite (tests): use whatever is configured, up to 3.
		out = e.cfg.Benchmarks
		if len(out) > 3 {
			out = out[:3]
		}
	}
	return out
}

// Figure1 — warmup curves: per-iteration time (normalized to the
// interpreter's steady mean) for interpreter vs JIT.
func (e *Engine) Figure1() (*report.Figure, error) {
	f := report.NewFigure("Figure 1: warmup curves (per-iteration time, normalized)",
		"iteration", "time / interp steady mean")
	for _, b := range e.warmupExemplars() {
		pi, err := e.baseProfile(b, vm.ModeInterp, e.cfg.WarmupIterations)
		if err != nil {
			return nil, err
		}
		pj, err := e.baseProfile(b, vm.ModeJIT, e.cfg.WarmupIterations)
		if err != nil {
			return nil, err
		}
		norm := stats.Mean(pi[len(pi)/2:])
		f.Add(b.Name+"/interp", scaleSeries(pi, 1/norm))
		f.Add(b.Name+"/jit", scaleSeries(pj, 1/norm))
	}
	f.Caption = "JIT series start at interpreter-level cost, pay compile pauses, then drop below 1; interpreter series stay flat."
	return f, nil
}

func scaleSeries(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// Figure2 — run-to-run distribution: sorted invocation means normalized to
// their median, one series per benchmark (a text violin plot).
func (e *Engine) Figure2() (*report.Figure, error) {
	f := report.NewFigure("Figure 2: run-to-run distribution of invocation means",
		"invocation (sorted)", "time / median")
	invocations := e.cfg.Invocations * 2
	for _, b := range e.cfg.Benchmarks {
		res, err := e.run(b, harness.Options{Mode: vm.ModeInterp, Invocations: invocations, Iterations: e.cfg.Iterations / 2, Noise: e.cfg.Noise})
		if err != nil {
			return nil, err
		}
		means := res.Hierarchical().InvocationMeans()
		med := stats.Median(means)
		sort.Float64s(means)
		f.Add(b.Name, scaleSeries(means, 1/med))
	}
	f.Caption = fmt.Sprintf("%d invocations per benchmark under the default noise model; spread reflects the invocation-level random effect plus spikes.", invocations)
	return f, nil
}

// Figure3 — JIT speedup over the interpreter with rigorous 95% CIs, plus
// the geometric mean.
func (e *Engine) Figure3() (*report.Table, error) {
	t := report.NewTable("Figure 3: JIT speedup over interpreter (rigorous, 95% CI)",
		"benchmark", "speedup", "CI lo", "CI hi", "verdict")
	results, geomean, err := e.CompareEngines()
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		t.AddRow(r.Benchmark, r.Speedup, r.CI.Lo, r.CI.Hi, r.Verdict.String())
	}
	t.AddRow("GEOMEAN", geomean, "", "", "")
	t.Caption = "Hierarchical bootstrap over invocations after changepoint warmup removal; verdict requires the CI to exclude 1."
	return t, nil
}

// Figure4 — CI half-width convergence: relative half-width of the rigorous
// speedup CI versus the number of invocations.
func (e *Engine) Figure4() (*report.Figure, error) {
	f := report.NewFigure("Figure 4: CI half-width vs invocations",
		"invocations", "relative CI half-width %")
	counts := []int{2, 3, 4, 6, 8, 12, 16, 24, 32, 40}
	rig := methodology.Rigorous{Seed: e.cfg.Seed, Resamples: 600}
	for _, b := range e.warmupExemplars() {
		gi, gj, err := e.generatorPair(b, e.cfg.Iterations)
		if err != nil {
			return nil, err
		}
		xs := make([]float64, 0, len(counts))
		ys := make([]float64, 0, len(counts))
		const reps = 5
		for _, n := range counts {
			sum := 0.0
			for r := 0; r < reps; r++ {
				seed := e.cfg.Seed + uint64(1000*n+r)
				hsA := gi.Sample(seed, n, e.cfg.Iterations)
				hsB := gj.Sample(seed^0xABCD, n, e.cfg.Iterations)
				cmp := rig.Compare(hsA, hsB)
				sum += cmp.CI.RelHalfWidth()
			}
			xs = append(xs, float64(n))
			ys = append(ys, 100*sum/reps)
		}
		f.AddXY(b.Name, xs, ys)
	}
	f.Caption = "Half-width shrinks ~1/sqrt(n) with invocations; mean of 5 synthetic experiments per point."
	return f, nil
}

// Figure5 — effect of warmup handling on the reported speedup: include all
// iterations, drop a fixed prefix, or detect the steady state.
func (e *Engine) Figure5() (*report.Table, error) {
	t := report.NewTable("Figure 5: warmup handling vs reported JIT speedup",
		"benchmark", "include-all", "drop-5", "detected", "true steady")
	for _, b := range e.cfg.Benchmarks {
		ri, rj, err := e.RunPair(b, e.cfg.WarmupIterations)
		if err != nil {
			return nil, err
		}
		all := stats.Mean(ri.Hierarchical().Flatten()) / stats.Mean(rj.Hierarchical().Flatten())
		drop5 := stats.Mean(ri.HierarchicalFrom(5).Flatten()) / stats.Mean(rj.HierarchicalFrom(5).Flatten())
		rig := methodology.Rigorous{Seed: e.cfg.Seed, Resamples: 400}
		det := rig.Compare(ri.Hierarchical(), rj.Hierarchical()).Speedup
		// Ground truth from noise-free steady tails.
		pi, err := e.baseProfile(b, vm.ModeInterp, e.cfg.WarmupIterations)
		if err != nil {
			return nil, err
		}
		pj, err := e.baseProfile(b, vm.ModeJIT, e.cfg.WarmupIterations)
		if err != nil {
			return nil, err
		}
		truth := methodology.TrueSpeedup(pi, pj)
		t.AddRow(b.Name, all, drop5, det, truth)
	}
	t.Caption = "Including warmup understates JIT speedups; changepoint detection tracks the noise-free steady-state truth."
	return t, nil
}

// Figure6 — top-down bound breakdown per benchmark (interpreter).
func (e *Engine) Figure6() (*report.Figure, error) {
	f := report.NewFigure("Figure 6: top-down breakdown (interpreter)",
		"benchmark index", "fraction of cycles")
	var retiring, frontend, badspec, backend []float64
	var names []string
	for _, b := range e.cfg.Benchmarks {
		res, err := e.run(b, harness.Options{Mode: vm.ModeInterp, Invocations: 1, Iterations: 3, Noise: e.cfg.Noise, WithCounters: true})
		if err != nil {
			return nil, err
		}
		s := res.Invocations[0].Counters
		retiring = append(retiring, s.Retiring)
		frontend = append(frontend, s.FrontendBound)
		badspec = append(badspec, s.BadSpecBound)
		backend = append(backend, s.BackendBound)
		names = append(names, b.Name)
	}
	f.Add("retiring", retiring)
	f.Add("frontend-bound", frontend)
	f.Add("bad-speculation", badspec)
	f.Add("backend-bound", backend)
	f.Caption = "Benchmarks in suite order: " + joinNames(names)
	return f, nil
}

func joinNames(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%d=%s", i, n)
	}
	return out
}

// Figure7 — variance decomposition: fraction of grand-mean variance coming
// from the invocation level, per benchmark × engine.
func (e *Engine) Figure7() (*report.Table, error) {
	t := report.NewTable("Figure 7: variance decomposition (between-invocation fraction)",
		"benchmark", "engine", "between%", "within%", "CoV inv%", "CoV iter%")
	for _, b := range e.cfg.Benchmarks {
		for _, mode := range []vm.Mode{vm.ModeInterp, vm.ModeJIT} {
			res, err := e.run(b, harness.Options{Mode: mode, Invocations: e.cfg.Invocations, Iterations: e.cfg.Iterations, Noise: e.cfg.Noise})
			if err != nil {
				return nil, err
			}
			hs := res.HierarchicalFrom(e.cfg.Iterations / 3) // steady part
			vd := stats.DecomposeVariance(hs)
			bf := vd.BetweenFraction()
			covInv := 0.0
			if vd.GrandMean > 0 {
				covInv = sqrt(vd.BetweenVar) / vd.GrandMean
			}
			covIter := 0.0
			if vd.GrandMean > 0 {
				covIter = sqrt(vd.WithinVar) / vd.GrandMean
			}
			t.AddRow(b.Name, mode.String(), 100*bf, 100*(1-bf),
				100*covInv, 100*covIter)
		}
	}
	t.Caption = "Kalibera–Jones two-level decomposition on the steady two-thirds of each invocation."
	return t, nil
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

// Figure8 — probability of a misleading conclusion versus the true effect
// size, per methodology.
func (e *Engine) Figure8() (*report.Figure, error) {
	f := report.NewFigure("Figure 8: P(misleading or missed) vs true effect size",
		"true speedup effect %", "wrong-conclusion rate %")
	// Use a flat numeric profile as the baseline workload.
	b := e.cfg.Benchmarks[0]
	for _, cand := range e.cfg.Benchmarks {
		if cand.Name == "nbody" {
			b = cand
		}
	}
	gi, _, err := e.generatorPair(b, e.cfg.Iterations)
	if err != nil {
		return nil, err
	}
	effects := []float64{0, 0.005, 0.01, 0.02, 0.05, 0.10, 0.20, 0.50}
	trials := e.cfg.Trials / 2
	if trials < 20 {
		trials = 20
	}
	for _, m := range methodology.All(e.cfg.Seed) {
		xs := make([]float64, 0, len(effects))
		ys := make([]float64, 0, len(effects))
		for _, eff := range effects {
			treatment := gi.Scaled(1 + eff)
			er := methodology.EvaluateMethodology(m, gi, treatment,
				e.cfg.Invocations, e.cfg.Iterations, trials, 0.01,
				e.cfg.Seed+uint64(eff*1e4))
			wrong := float64(er.Misleading+er.Missed) / float64(er.Trials)
			xs = append(xs, 100*eff)
			ys = append(ys, 100*wrong)
		}
		f.AddXY(m.Name(), xs, ys)
	}
	f.Caption = fmt.Sprintf("Synthetic treatments scaled from %s's interpreter profile; %d trials per point; equivalence band ±1%%.",
		b.Name, trials)
	return f, nil
}
