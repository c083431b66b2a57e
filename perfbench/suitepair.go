package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/controlapi"
	"repro/internal/harness"
	"repro/internal/methodology"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// suitePair is the paper's core use: one op is one benchmark's interp
// campaign, then its JIT campaign, each through controlapi.Execute, then
// the rigorous comparison of the two. Ops rotate over the whole
// inventory on a warm code cache, so the VM does almost all the work.
type suitePair struct {
	seed    uint64
	benches []workloads.Benchmark
	runner  *harness.Runner
}

func newSuitePair(seed uint64) *suitePair {
	return &suitePair{seed: seed, benches: inventory()}
}

// inventory is every benchmark in canonical order: the suite, then the
// extended set.
func inventory() []workloads.Benchmark {
	return append(workloads.Suite(), workloads.Extended()...)
}

func names(bs []workloads.Benchmark) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.Name
	}
	return out
}

func (w *suitePair) setupReps() (int, int)   { return 15, 1 }
func (w *suitePair) nominalOpsPerS() float64 { return 15 }
func (w *suitePair) rotation(int) []string   { return names(w.benches) }
func (w *suitePair) check() (int, error)     { return 0, nil }
func (w *suitePair) close()                  {}

// setUp is a fresh runner whose code cache holds every program.
func (w *suitePair) setUp() (float64, error) {
	start := time.Now()
	r, err := filledRunner(w.benches)
	if err != nil {
		return 0, err
	}
	w.runner = r
	return time.Since(start).Seconds(), nil
}

func filledRunner(benches []workloads.Benchmark) (*harness.Runner, error) {
	r := harness.NewRunner()
	for _, b := range benches {
		if _, _, err := r.Cache().Get(b); err != nil {
			return nil, fmt.Errorf("filling code cache: %w", err)
		}
	}
	return r, nil
}

func (w *suitePair) op(_, i int, t *opTrace) (time.Duration, error) {
	b := w.benches[i]
	spec := controlapi.CampaignSpec{
		Benchmarks:  []string{b.Name},
		Invocations: 2,
		Iterations:  5,
		Noise:       "default",
		Seed:        campaignSeed(w.seed, b.Name),
	}
	spec.Mode = "interp"
	ri, err := w.execute(spec, t)
	if err != nil {
		return 0, err
	}
	first := t.now()
	spec.Mode = "jit"
	rj, err := w.execute(spec, t)
	if err != nil {
		return first, err
	}
	start := t.now()
	cmp := methodology.Rigorous{Seed: spec.Seed}.Compare(ri.Hierarchical(), rj.Hierarchical())
	t.since("methodology", 0, start)
	if err := checkPair(b, ri, rj); err != nil {
		return first, err
	}
	if math.IsNaN(cmp.Speedup) || math.IsInf(cmp.Speedup, 0) || cmp.Speedup <= 0 {
		return first, fmt.Errorf("rigorous speedup %v", cmp.Speedup)
	}
	return first, nil
}

// execute runs one single-benchmark campaign. In a traced op it attaches
// a fresh Observer tracer and charges the invocation spans to the vm,
// the rest of Execute to the harness.
func (w *suitePair) execute(spec controlapi.CampaignSpec, t *opTrace) (*harness.Result, error) {
	var tracer *trace.Tracer
	var alloc uint64
	if t.on {
		tracer = trace.New()
		w.runner.SetObserver(harness.Observer{Trace: tracer})
		defer w.runner.SetObserver(harness.Observer{})
		alloc = heapAllocs()
	}
	start := t.now()
	res, err := controlapi.Execute(spec, controlapi.ExecOptions{Runner: w.runner})
	if t.on {
		end := t.now()
		t.val("harness.alloc_bytes", float64(heapAllocs()-alloc))
		ex := t.add("harness", 0, start, end)
		events := tracer.Events()
		t.addEvents(events, trace.CatInvocation, "vm", ex, start)
		run := eventTime(events, trace.CatPhase, "run()")
		t.val("vm.run_ns", float64(run))
		t.val("vm.module_setup_ns", float64(eventTime(events, trace.CatPhase, "module-setup")))
		t.val("harness.self_ns", float64(end-start-eventTime(events, trace.CatInvocation, "")))
		if err == nil && len(res) == 1 {
			t.val("vm."+spec.Mode+"_run_ns", float64(run))
			t.val("vm."+spec.Mode+"_steps", float64(steps(res[0])))
		}
	}
	if err != nil {
		return nil, err
	}
	if len(res) != 1 {
		return nil, fmt.Errorf("campaign returned %d results, want 1", len(res))
	}
	return res[0], nil
}

func steps(r *harness.Result) uint64 {
	var n uint64
	for _, inv := range r.Invocations {
		for _, s := range inv.Steps {
			n += s
		}
	}
	return n
}

// checkPair checks both arms' checksums against the declared one and
// against each other.
func checkPair(b workloads.Benchmark, ri, rj *harness.Result) error {
	for _, r := range []*harness.Result{ri, rj} {
		if len(r.Invocations) == 0 {
			return fmt.Errorf("%s arm has no invocations", r.Mode)
		}
		for _, inv := range r.Invocations {
			if b.Checksum != "" && inv.Checksum != b.Checksum {
				return fmt.Errorf("%s arm checksum %s, want %s", r.Mode, inv.Checksum, b.Checksum)
			}
		}
	}
	if ci, cj := ri.Invocations[0].Checksum, rj.Invocations[0].Checksum; ci != cj {
		return fmt.Errorf("interp checksum %s, jit checksum %s", ci, cj)
	}
	return nil
}

func (w *suitePair) layers(p *phase, _ float64) map[string]float64 {
	v := sumVals(p.traces)
	n := float64(len(p.traces))
	return map[string]float64{
		"vm.run_ms_per_op":              v["vm.run_ns"] / 1e6 / n,
		"vm.module_setup_ms_per_op":     v["vm.module_setup_ns"] / 1e6 / n,
		"vm.interp_msteps_per_s":        v["vm.interp_steps"] / (v["vm.interp_run_ns"] / 1e9) / 1e6,
		"vm.jit_msteps_per_s":           v["vm.jit_steps"] / (v["vm.jit_run_ns"] / 1e9) / 1e6,
		"harness.self_ms_per_op":        v["harness.self_ns"] / 1e6 / n,
		"harness.alloc_mb_per_op":       v["harness.alloc_bytes"] / 1e6 / n,
		"runtime.gc_cycles_per_op":      float64(p.gcCycles) / float64(p.attempted),
		"runtime.gc_cpu_frac":           p.gcCPUFrac(),
		"methodology.compare_ms_per_op": layerMs(p.traces, "methodology") / n,
	}
}

// sumVals adds up the traced ops' values.
func sumVals(ts []*opTrace) map[string]float64 {
	out := map[string]float64{}
	for _, t := range ts {
		for k, v := range t.vals {
			out[k] += v
		}
	}
	return out
}

// layerMs is the self time charged to layer over the traced ops, in ms.
func layerMs(ts []*opTrace, layer string) float64 {
	var d time.Duration
	for _, t := range ts {
		d += selfTimes(t.spans)[layer]
	}
	return ms(d)
}

// campaignSeed derives an op's campaign or trial seed from the workload
// seed and the op's name, never zero (a zero seed means "default").
func campaignSeed(seed uint64, name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	h ^= seed * 0x9E3779B97F4A7C15
	if h == 0 {
		h = 1
	}
	return h
}
