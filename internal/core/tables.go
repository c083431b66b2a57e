package core

import (
	"fmt"

	"repro/internal/harness"
	"repro/internal/methodology"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/vm"
)

// Table1 — benchmark suite overview: workload class, dynamic bytecode op
// count per iteration, and instruction mix.
func (e *Engine) Table1() (*report.Table, error) {
	t := report.NewTable("Table 1: benchmark suite overview",
		"benchmark", "class", "ops/iter", "instr/iter",
		"ld/st%", "arith%", "branch%", "call%", "alloc%")
	for _, b := range e.cfg.Benchmarks {
		res, err := e.run(b, harness.Options{Mode: vm.ModeInterp, Invocations: 1, Iterations: 2, Noise: e.cfg.Noise, WithCounters: true})
		if err != nil {
			return nil, err
		}
		inv := res.Invocations[0]
		// Per-iteration dynamic footprint from the second (steady) call.
		ops := inv.Steps[len(inv.Steps)-1]
		instr := inv.Counters.Instructions / uint64(len(inv.Steps))
		mix := inv.Mix
		t.AddRow(b.Name, string(b.Class), ops, instr,
			pct(mix.LoadStore), pct(mix.Arith), pct(mix.Branch),
			pct(mix.Call), pct(mix.Alloc))
	}
	t.Caption = "Dynamic per-iteration op counts and instruction mix (interpreter, counter model attached)."
	return t, nil
}

func pct(f float64) string { return fmt.Sprintf("%.1f", 100*f) }

// Table2 — per-benchmark timing statistics under both engines: mean,
// coefficient of variation, rigorous 95% CI half-width, and the invocation
// count needed for a ±1% interval.
func (e *Engine) Table2() (*report.Table, error) {
	t := report.NewTable("Table 2: per-benchmark timing statistics",
		"benchmark", "engine", "mean ms", "CoV%", "CI95 ±%", "inv for ±1%")
	for _, b := range e.cfg.Benchmarks {
		for _, mode := range []vm.Mode{vm.ModeInterp, vm.ModeJIT} {
			res, err := e.run(b, harness.Options{Mode: mode, Invocations: e.cfg.Invocations, Iterations: e.cfg.Iterations, Noise: e.cfg.Noise})
			if err != nil {
				return nil, err
			}
			hs := res.Hierarchical()
			means := hs.InvocationMeans()
			ci := stats.KaliberaMeanCI(hs, e.cfg.Confidence)
			need := stats.RequiredN(means, e.cfg.Confidence, 0.01*stats.Mean(means))
			t.AddRow(b.Name, mode.String(),
				1e3*stats.Mean(means),
				100*stats.CoV(means),
				100*ci.RelHalfWidth(),
				need)
		}
	}
	t.Caption = fmt.Sprintf("%d invocations × %d iterations, default noise model; CI over invocation means (Kalibera–Jones).",
		e.cfg.Invocations, e.cfg.Iterations)
	return t, nil
}

// Table3 — steady-state classification per benchmark × engine from
// changepoint analysis across invocations.
func (e *Engine) Table3() (*report.Table, error) {
	t := report.NewTable("Table 3: steady-state classification",
		"benchmark", "engine", "class", "steady@iter", "reached%", "JIT traces")
	counts := map[string]int{}
	for _, b := range e.cfg.Benchmarks {
		for _, mode := range []vm.Mode{vm.ModeInterp, vm.ModeJIT} {
			res, err := e.run(b, harness.Options{Mode: mode, Invocations: e.cfg.Invocations, Iterations: e.cfg.WarmupIterations, Noise: e.cfg.Noise})
			if err != nil {
				return nil, err
			}
			rep := methodology.ClassifyExperiment(res.Hierarchical())
			counts[mode.String()+"/"+rep.Class.String()]++
			traces := 0
			for _, inv := range res.Invocations {
				traces += inv.JITTraces
			}
			t.AddRow(b.Name, mode.String(), rep.Class.String(),
				rep.MeanSteadyStart, pct(rep.ReachedSteadyFrac),
				traces/len(res.Invocations))
		}
	}
	caption := "Per-invocation PELT changepoint classification, aggregated; "
	for _, k := range sortedKeysInt(counts) {
		caption += fmt.Sprintf("[%s: %d] ", k, counts[k])
	}
	t.Caption = caption
	return t, nil
}

func sortedKeysInt(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// Table4 — misleading-conclusion rates of each methodology over synthetic
// trials on every benchmark's real warmup profile.
func (e *Engine) Table4() (*report.Table, error) {
	t := report.NewTable("Table 4: misleading conclusions by methodology",
		"methodology", "misleading%", "missed%", "mean |rel err|%")
	agg := map[string]*methodology.ErrorRates{}
	order := []string{}
	perBench := e.cfg.Trials / len(e.cfg.Benchmarks)
	if perBench < 10 {
		perBench = 10
	}
	for _, b := range e.cfg.Benchmarks {
		gi, gj, err := e.generatorPair(b, e.cfg.Iterations)
		if err != nil {
			return nil, err
		}
		for _, m := range methodology.All(e.cfg.Seed) {
			er := methodology.EvaluateMethodology(m, gi, gj,
				e.cfg.Invocations, e.cfg.Iterations, perBench, 0.01,
				e.cfg.Seed^benchSeed(b.Name, 0))
			a, ok := agg[m.Name()]
			if !ok {
				a = &methodology.ErrorRates{Methodology: m.Name()}
				agg[m.Name()] = a
				order = append(order, m.Name())
			}
			a.Trials += er.Trials
			a.Misleading += er.Misleading
			a.Missed += er.Missed
			a.MeanRelErr += er.MeanRelErr * float64(er.Trials)
		}
	}
	for _, name := range order {
		a := agg[name]
		t.AddRow(name,
			100*a.MisleadingRate(),
			100*a.MissRate(),
			100*a.MeanRelErr/float64(a.Trials))
	}
	t.Caption = fmt.Sprintf("%d synthetic trials per benchmark per methodology on real engine warmup profiles; equivalence band ±1%%.",
		perBench)
	return t, nil
}

// Table5 — microarchitectural characterization of the interpreter under the
// simulated counter model.
func (e *Engine) Table5() (*report.Table, error) {
	t := report.NewTable("Table 5: microarchitectural characterization (interpreter)",
		"benchmark", "IPC", "L1 MPKI", "L2 MPKI", "dTLB MPKI", "br MPKI", "dispatch miss%")
	for _, b := range e.cfg.Benchmarks {
		res, err := e.run(b, harness.Options{Mode: vm.ModeInterp, Invocations: 1, Iterations: 3, Noise: e.cfg.Noise, WithCounters: true})
		if err != nil {
			return nil, err
		}
		s := res.Invocations[0].Counters
		t.AddRow(b.Name, s.IPC, s.L1MPKI, s.L2MPKI, s.TLBMPKI, s.BranchMPKI,
			pct(s.DispatchMiss))
	}
	t.Caption = "Simulated 32KiB L1 / 1MiB L2, gshare 14-bit, 64-entry dTLB, dispatch predictor keyed on previous two opcodes."
	return t, nil
}
