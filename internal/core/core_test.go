package core

import (
	"strings"
	"testing"

	"repro/internal/noise"
	"repro/internal/workloads"
)

// fastConfig returns a configuration small enough for unit tests but large
// enough to exercise every code path.
func fastConfig() Config {
	suite := workloads.Suite()
	small := []workloads.Benchmark{}
	for _, b := range suite {
		switch b.Name {
		case "fib", "nbody", "branchy", "dictstress":
			small = append(small, b)
		}
	}
	return Config{
		Noise:            noise.Default(),
		Seed:             7,
		Invocations:      4,
		Iterations:       10,
		WarmupIterations: 24,
		Trials:           40,
		Benchmarks:       small,
	}
}

func TestAllExperimentsProduceOutput(t *testing.T) {
	e := New(fastConfig())
	for _, id := range ExperimentIDs() {
		out, err := e.Experiment(id)
		if err != nil {
			t.Fatalf("experiment %s: %v", id, err)
		}
		s := out.String()
		if len(s) < 40 {
			t.Errorf("experiment %s: suspiciously short output:\n%s", id, s)
		}
		if !strings.Contains(s, "==") {
			t.Errorf("experiment %s: missing title:\n%s", id, s)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	e := New(fastConfig())
	if _, err := e.Experiment("T99"); err == nil {
		t.Fatal("expected error for unknown experiment id")
	}
}

func TestCompareEnginesShape(t *testing.T) {
	e := New(fastConfig())
	results, geomean, err := e.CompareEngines()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(e.Config().Benchmarks) {
		t.Fatalf("got %d results, want %d", len(results), len(e.Config().Benchmarks))
	}
	if geomean <= 0 {
		t.Fatalf("geomean %v not positive", geomean)
	}
	// The JIT must win on the numeric hot-loop benchmark.
	for _, r := range results {
		if r.Benchmark == "nbody" && r.Speedup <= 1 {
			t.Errorf("nbody: expected JIT speedup > 1, got %v", r.Speedup)
		}
		if r.CI.Lo > r.CI.Hi {
			t.Errorf("%s: inverted CI [%v, %v]", r.Benchmark, r.CI.Lo, r.CI.Hi)
		}
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	a := New(fastConfig())
	b := New(fastConfig())
	for _, id := range []string{"T2", "F3"} {
		outA, err := a.Experiment(id)
		if err != nil {
			t.Fatal(err)
		}
		outB, err := b.Experiment(id)
		if err != nil {
			t.Fatal(err)
		}
		if outA.String() != outB.String() {
			t.Errorf("experiment %s not deterministic:\n--- a ---\n%s\n--- b ---\n%s",
				id, outA, outB)
		}
	}
}
