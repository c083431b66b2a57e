package harness

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/noise"
	"repro/internal/stats"
	"repro/internal/vm"
	"repro/internal/workloads"
)

func mustBench(t *testing.T, name string) workloads.Benchmark {
	t.Helper()
	b, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("benchmark %s missing", name)
	}
	return b
}

func TestRunShapeAndDeterminism(t *testing.T) {
	r := NewRunner()
	b := mustBench(t, "fib")
	opts := Options{Invocations: 3, Iterations: 5, Seed: 11, Noise: noise.Default()}
	res, err := r.Run(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Invocations) != 3 {
		t.Fatalf("invocations %d", len(res.Invocations))
	}
	for _, inv := range res.Invocations {
		if len(inv.TimesSec) != 5 || len(inv.Cycles) != 5 || len(inv.Steps) != 5 {
			t.Fatalf("iteration arrays wrong: %d %d %d",
				len(inv.TimesSec), len(inv.Cycles), len(inv.Steps))
		}
		for _, ts := range inv.TimesSec {
			if ts <= 0 {
				t.Fatal("non-positive time")
			}
		}
		if inv.Checksum != b.Checksum {
			t.Fatalf("checksum %s, want %s", inv.Checksum, b.Checksum)
		}
	}
	// Re-running with the same seed reproduces measured times exactly.
	res2, err := NewRunner().Run(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Invocations {
		for j := range res.Invocations[i].TimesSec {
			if res.Invocations[i].TimesSec[j] != res2.Invocations[i].TimesSec[j] {
				t.Fatal("runs with the same seed must match exactly")
			}
		}
	}
}

func TestNoiseFreeTimesMatchCycles(t *testing.T) {
	r := NewRunner()
	b := mustBench(t, "collatz")
	res, err := r.Run(b, Options{
		Invocations: 1, Iterations: 4, Noise: noise.None(), FreqGHz: 2.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	inv := res.Invocations[0]
	for j := range inv.TimesSec {
		want := float64(inv.Cycles[j]) / 2e9
		if inv.TimesSec[j] != want {
			t.Fatalf("iteration %d: time %v, want cycles/freq %v", j, inv.TimesSec[j], want)
		}
	}
}

func TestInterpCyclesAreIterationStable(t *testing.T) {
	// The interpreter has no warmup: steady iterations must cost identical
	// cycles.
	r := NewRunner()
	res, err := r.Run(mustBench(t, "branchy"), Options{
		Invocations: 1, Iterations: 5, Noise: noise.None(),
	})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Invocations[0].Cycles
	for j := 1; j < len(c); j++ {
		if c[j] != c[1] && j > 1 {
			t.Fatalf("interpreter cycles vary across iterations: %v", c)
		}
	}
}

func TestJITCyclesWarmUp(t *testing.T) {
	r := NewRunner()
	res, err := r.Run(mustBench(t, "nbody"), Options{
		Mode: vm.ModeJIT, Invocations: 2, Iterations: 12, Noise: noise.None(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, inv := range res.Invocations {
		first, last := inv.Cycles[0], inv.Cycles[len(inv.Cycles)-1]
		if last >= first {
			t.Fatalf("no warmup visible: first %d last %d", first, last)
		}
		if inv.JITTraces == 0 {
			t.Fatal("expected compiled traces")
		}
	}
}

func TestCountersAttached(t *testing.T) {
	r := NewRunner()
	res, err := r.Run(mustBench(t, "fib"), Options{
		Invocations: 1, Iterations: 2, Noise: noise.None(), WithCounters: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	inv := res.Invocations[0]
	if inv.Counters == nil {
		t.Fatal("counters missing")
	}
	if inv.Counters.IPC <= 0 || inv.Counters.IPC > 1 {
		t.Fatalf("IPC %v out of (0, 1]", inv.Counters.IPC)
	}
	mixTotal := inv.Mix.LoadStore + inv.Mix.Arith + inv.Mix.Branch +
		inv.Mix.Call + inv.Mix.Alloc + inv.Mix.Other
	if mixTotal < 0.999 || mixTotal > 1.001 {
		t.Fatalf("mix sums to %v", mixTotal)
	}
	// Without counters the snapshot must be nil.
	res2, err := r.Run(mustBench(t, "fib"), Options{Invocations: 1, Iterations: 1, Noise: noise.None()})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Invocations[0].Counters != nil {
		t.Fatal("counters should be nil when disabled")
	}
}

func TestHierarchicalViews(t *testing.T) {
	r := NewRunner()
	res, err := r.Run(mustBench(t, "fib"), Options{
		Invocations: 2, Iterations: 6, Seed: 5, Noise: noise.Default(),
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := res.Hierarchical()
	if len(hs.Times) != 2 || len(hs.Times[0]) != 6 {
		t.Fatal("hierarchical shape")
	}
	trimmed := res.HierarchicalFrom(2)
	if len(trimmed.Times[0]) != 4 {
		t.Fatal("trimmed shape")
	}
	over := res.HierarchicalFrom(10)
	if over.Times[0] != nil {
		t.Fatal("over-trim should produce empty rows")
	}
}

// TestChecksumValidation is the table-driven coverage of the result
// validation path: declared-checksum agreement and deliberate mismatches
// under both engines. The cross-engine check of a pair is core's.
func TestChecksumValidation(t *testing.T) {
	mk := func(ret, want string) workloads.Benchmark {
		return workloads.Benchmark{
			Name:     "chk",
			Source:   "def run():\n    return " + ret,
			Checksum: want,
		}
	}
	opts := Options{Invocations: 1, Iterations: 1}
	cases := []struct {
		name    string
		bench   workloads.Benchmark
		mode    vm.Mode
		wantErr string // "" = must succeed
	}{
		{"interp match", mk("1", "1"), vm.ModeInterp, ""},
		{"jit match", mk("1", "1"), vm.ModeJIT, ""},
		{"interp mismatch", mk("1", "2"), vm.ModeInterp, "checksum mismatch: got 1, want 2"},
		{"jit mismatch", mk("1", "2"), vm.ModeJIT, "checksum mismatch: got 1, want 2"},
		{"no declared checksum", mk("1", ""), vm.ModeInterp, ""},
		{"string repr", mk("'ok'", "'ok'"), vm.ModeInterp, ""},
		{"string mismatch", mk("'ok'", "'no'"), vm.ModeJIT, "checksum mismatch"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := opts
			o.Mode = c.mode
			_, err := NewRunner().Run(c.bench, o)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("want error containing %q, got %v", c.wantErr, err)
			}
		})
	}
}

func TestModuleSetupErrorSurfaces(t *testing.T) {
	r := NewRunner()
	bad := workloads.Benchmark{Name: "boom", Source: "x = 1 / 0"}
	if _, err := r.Run(bad, Options{Invocations: 1, Iterations: 1}); err == nil {
		t.Fatal("setup error must surface")
	}
	noRun := workloads.Benchmark{Name: "norun", Source: "x = 1"}
	if _, err := r.Run(noRun, Options{Invocations: 1, Iterations: 1}); err == nil {
		t.Fatal("missing run() must error")
	}
}

// TestDesignTooLargeIsAnError checks that Run refuses a design past
// MaxSamples with an error instead of trying to allocate it, and that
// CheckDesign's bound is exact and cannot overflow.
func TestDesignTooLargeIsAnError(t *testing.T) {
	r := NewRunner()
	b := mustBench(t, "fib")
	for _, o := range []Options{
		{Invocations: 1 << 62},
		{Iterations: 1 << 62},
		{Invocations: 1 << 62, Iterations: 1 << 62},
		{Invocations: 1 << 12, Iterations: 1<<12 + 1},
	} {
		if _, err := r.Run(b, o); err == nil || !strings.Contains(err.Error(), "exceeds the limit") {
			t.Errorf("Run with %d invocations × %d iterations: %v, want a design error", o.Invocations, o.Iterations, err)
		}
	}
	for _, c := range []struct {
		invocations, iterations int
		ok                      bool
	}{
		{1 << 12, 1 << 12, true},
		{MaxSamples, 1, true},
		{MaxSamples + 1, 1, false},
		{MaxSamples/30 + 1, 0, false}, // the default 30 iterations count
		{0, 0, true},
		{-1, 1<<62 + 1, false},
	} {
		if err := CheckDesign(c.invocations, c.iterations); (err == nil) != c.ok {
			t.Errorf("CheckDesign(%d, %d) = %v, want ok %v", c.invocations, c.iterations, err, c.ok)
		}
	}
}

func TestCompiledCacheConcurrent(t *testing.T) {
	// The code cache must be safe under concurrent Run calls (checked
	// under -race in `make verify`); results stay deterministic per seed.
	r := NewRunner()
	benches := []string{"fib", "collatz", "quicksort"}
	errc := make(chan error, 12)
	for i := 0; i < 12; i++ {
		name := benches[i%len(benches)]
		go func() {
			b, ok := workloads.ByName(name)
			if !ok {
				errc <- nil
				return
			}
			_, err := r.Run(b, Options{Invocations: 1, Iterations: 2, Seed: 1})
			errc <- err
		}()
	}
	for i := 0; i < 12; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// TestParallelSampleSetEquivalence is the proof the simulate-once engine
// rests on: for every shipped workload, at two seeds and with counters on,
// each invocation of a run equals a fresh VM simulation of it timed
// through that invocation's noise stream — the record an engine that ran
// the VM once per invocation produced. The experiments run in parallel on
// one shared Runner, as concurrent experiments may.
func TestParallelSampleSetEquivalence(t *testing.T) {
	all := append(append([]workloads.Benchmark{}, workloads.Suite()...),
		workloads.Extended()...)
	r := NewRunner()
	for _, seed := range []uint64{42, 20260806} {
		for _, b := range all {
			b, seed := b, seed
			t.Run(fmt.Sprintf("%s/seed%d", b.Name, seed), func(t *testing.T) {
				t.Parallel()
				opts := Options{Invocations: 5, Iterations: 4, Seed: seed,
					Noise: noise.Default(), WithCounters: true}
				res, err := r.Run(b, opts)
				if err != nil {
					t.Fatal(err)
				}
				code, _, err := r.compiled(b, 0)
				if err != nil {
					t.Fatal(err)
				}
				for i, got := range res.Invocations {
					sim, err := NewRunner().simulate(context.Background(), code, res.Opts)
					if err != nil {
						t.Fatal(err)
					}
					if want := r.measure(sim, res.Opts, i); !reflect.DeepEqual(&got, want) {
						t.Fatalf("invocation %d differs from a fresh simulation of it", i)
					}
				}
			})
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Invocations != 10 || o.Iterations != 30 || o.FreqGHz != 3.0 {
		t.Fatalf("defaults %+v", o)
	}
}

func TestVarianceStructureMatchesNoiseModel(t *testing.T) {
	// End-to-end: the harness + noise should produce data whose decomposed
	// between-invocation std is near the configured invocation sigma.
	r := NewRunner()
	res, err := r.Run(mustBench(t, "collatz"), Options{
		Invocations: 40, Iterations: 10, Seed: 3,
		Noise: noise.Params{InvocationSigma: 0.05, IterationSigma: 0.002},
	})
	if err != nil {
		t.Fatal(err)
	}
	vd := stats.DecomposeVariance(res.Hierarchical())
	relBetween := 0.0
	if vd.GrandMean > 0 {
		relBetween = sqrtf(vd.BetweenVar) / vd.GrandMean
	}
	if relBetween < 0.03 || relBetween > 0.08 {
		t.Fatalf("between-invocation rel std %v, want ~0.05", relBetween)
	}
}

func sqrtf(x float64) float64 {
	if x <= 0 {
		return 0
	}
	// Newton's method is fine for a test helper.
	g := x
	for i := 0; i < 40; i++ {
		g = (g + x/g) / 2
	}
	return g
}

func TestJSONRoundTrip(t *testing.T) {
	r := NewRunner()
	res, err := r.Run(mustBench(t, "fib"), Options{
		Mode: vm.ModeJIT, Invocations: 2, Iterations: 3, Seed: 4,
		Noise: noise.Default(), WithCounters: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"Mode": "jit"`) {
		t.Fatalf("mode not serialized by name:\n%s", buf.String()[:200])
	}
	back, err := ReadResultJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Benchmark != res.Benchmark || back.Mode != res.Mode {
		t.Fatal("metadata lost in round trip")
	}
	if len(back.Invocations) != len(res.Invocations) {
		t.Fatal("invocations lost")
	}
	for i := range back.Invocations {
		a, b := back.Invocations[i], res.Invocations[i]
		if len(a.TimesSec) != len(b.TimesSec) || a.TimesSec[0] != b.TimesSec[0] {
			t.Fatal("times lost")
		}
		if a.Checksum != b.Checksum {
			t.Fatal("checksum lost")
		}
		if (a.Counters == nil) != (b.Counters == nil) {
			t.Fatal("counters lost")
		}
	}
	if _, err := ReadResultJSON(strings.NewReader("{broken")); err == nil {
		t.Fatal("broken JSON must error")
	}
}

// SameSamples is the one definition of "same samples": every field of the
// sample set counts, and the error names the first invocation and field
// that differ.
func TestSameSamplesNamesFirstDifference(t *testing.T) {
	mk := func() *Result {
		return &Result{Invocations: []Invocation{
			{TimesSec: []float64{1, 2}, Cycles: []uint64{10, 20}, Steps: []uint64{5, 6}, Checksum: "a"},
			{TimesSec: []float64{3, 4}, Cycles: []uint64{30, 40}, Steps: []uint64{7, 8}, Checksum: "b"},
		}}
	}
	if err := SameSamples(mk(), mk()); err != nil {
		t.Fatalf("identical sets differ: %v", err)
	}
	cases := []struct {
		edit func(*Result)
		want string
	}{
		{func(r *Result) { r.Invocations = r.Invocations[:1] }, "invocation counts differ: 2 vs 1"},
		{func(r *Result) { r.Invocations[1].TimesSec[1] = 4.5 }, "invocation 1 times differ: iteration 1: 4 vs 4.5"},
		{func(r *Result) { r.Invocations[1].Cycles[0] = 31 }, "invocation 1 cycles differ: iteration 0: 30 vs 31"},
		{func(r *Result) { r.Invocations[0].Steps = r.Invocations[0].Steps[:1] }, "invocation 0 steps differ: lengths 2 vs 1"},
		{func(r *Result) { r.Invocations[1].Checksum = "c" }, "invocation 1 checksums differ: b vs c"},
	}
	for _, c := range cases {
		got := mk()
		c.edit(got)
		if err := SameSamples(mk(), got); err == nil || err.Error() != c.want {
			t.Errorf("SameSamples = %v, want %q", err, c.want)
		}
	}
}
