package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/misleading_digests.txt")

// heldOutSeed is a seed no figure of the benchmark was tuned on; every
// output check must pass on it too.
const heldOutSeed = 20261016

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 0.9); err == nil {
		t.Fatal("p90 of 99 samples has 9 beyond it and must be refused")
	}
	xs = append(xs, 100)
	got, err := percentile(xs, 0.9)
	if err != nil || got != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", got, err)
	}
	if _, err := percentile(xs, 0.99); err == nil {
		t.Fatal("p99 of 100 samples must be refused")
	}
	if got, err := percentile(xs[:21], 0.5); err != nil || got != 11 {
		t.Fatalf("p50 of 1..21 = %v, %v; want 11", got, err)
	}
}

// TestSetUpIsTheMedianOfInterleavedBatchMeans checks that setup_s is the
// median of the batches' mean set-up times, and that each batch of fresh
// set-ups runs before its share of the rotations.
func TestSetUpIsTheMedianOfInterleavedBatchMeans(t *testing.T) {
	f := newFake(0)
	f.batches, f.perBatch = 3, 2
	f.setups = []float64{0.9, 0.7, 0.1, 0.3, 0.5, 0.5} // batch means 0.8, 0.2, 0.5
	got, p, err := setUpAndRun(f, 1, 3, traceOff)
	if err != nil || math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("setup_s = %v, %v; want 0.5", got, err)
	}
	want := "set-up set-up a b c set-up set-up a b c set-up set-up a b c"
	if log := strings.Join(f.log, " "); log != want || p.attempted != 9 {
		t.Fatalf("ran %q (%d ops); want %q", log, p.attempted, want)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median of an even count = %v, want 2.5", m)
	}
}

// fakeWorkload logs its set-ups and, per client, which ops ran, in order.
// Its ops take cost, so a slower program is a larger cost.
type fakeWorkload struct {
	mu                sync.Mutex
	ran               map[int][]string
	log               []string
	ops               [][]string
	cost              time.Duration
	batches, perBatch int
	setups            []float64
}

func newFake(cost time.Duration) *fakeWorkload {
	return &fakeWorkload{ran: map[int][]string{}, ops: [][]string{{"a", "b", "c"}, {"x", "y"}}, cost: cost,
		batches: 1, perBatch: 1, setups: []float64{0}}
}

func (f *fakeWorkload) setUp() (float64, error) {
	f.log = append(f.log, "set-up")
	s := f.setups[0]
	f.setups = f.setups[1:]
	return s, nil
}
func (f *fakeWorkload) setupReps() (int, int)                     { return f.batches, f.perBatch }
func (f *fakeWorkload) nominalOpsPerS() float64                   { return 1000 }
func (f *fakeWorkload) rotation(c int) []string                   { return f.ops[c] }
func (f *fakeWorkload) check() (int, error)                       { return 0, nil }
func (f *fakeWorkload) layers(*phase, float64) map[string]float64 { return nil }
func (f *fakeWorkload) close()                                    {}
func (f *fakeWorkload) op(c, i int, t *opTrace) (time.Duration, error) {
	time.Sleep(f.cost)
	f.mu.Lock()
	f.ran[c] = append(f.ran[c], f.ops[c][i])
	f.log = append(f.log, f.ops[c][i])
	f.mu.Unlock()
	return t.now(), nil
}

// TestTwoRunsExecuteTheSameOps runs a fast and a slow program for the same
// seconds: both run the same whole rotations of the op list.
func TestTwoRunsExecuteTheSameOps(t *testing.T) {
	for _, clients := range []int{1, 2} {
		fast, slow := newFake(0), newFake(200*time.Microsecond)
		var runs []map[int][]string
		for _, f := range []*fakeWorkload{fast, slow} {
			rots := rotationsFor(f, clients, 10*time.Millisecond, 7)
			p := runPhase(f, clients, 0, rots, traceOff)
			total := 0
			for c := range clients {
				ran, rot := f.ran[c], f.ops[c]
				if len(ran) != rots*len(rot) {
					t.Fatalf("client %d ran %d ops, want %d rotations of %d", c, len(ran), rots, len(rot))
				}
				for i, name := range ran {
					if name != rot[i%len(rot)] {
						t.Fatalf("client %d op %d is %s, want %s", c, i, name, rot[i%len(rot)])
					}
				}
				total += len(ran)
			}
			if p.attempted != total || total < 10 {
				t.Fatalf("attempted %d, ran %d; want equal and at least 10", p.attempted, total)
			}
			runs = append(runs, f.ran)
		}
		for c := range clients {
			if !slices.Equal(runs[0][c], runs[1][c]) {
				t.Fatalf("client %d: the fast and the slow program ran different ops", c)
			}
		}
	}
}

func TestRotationsIgnoreTheSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, clients, err := newWorkload(name, defaultSeed, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		b, _, _ := newWorkload(name, heldOutSeed, t.TempDir())
		for c := range clients {
			if !slices.Equal(a.rotation(c), b.rotation(c)) {
				t.Fatalf("%s client %d: the op list depends on the seed", name, c)
			}
		}
	}
}

func TestSelfTimesSumToOpTime(t *testing.T) {
	// op [0,100): a [10,60) holds b [20,40) and c [30,50) (overlapping),
	// d [70,90); 20 units are unattributed.
	spans := []span{
		{layer: rootLayer, start: 0, end: 100, parent: -1},
		{layer: "a", start: 10, end: 60, parent: 0},
		{layer: "b", start: 20, end: 40, parent: 1},
		{layer: "c", start: 30, end: 50, parent: 1},
		{layer: "d", start: 70, end: 90, parent: 0},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{rootLayer: 30, "a": 20, "b": 20, "c": 20, "d": 20}
	for k, v := range want {
		if self[k] != v {
			t.Errorf("self[%s] = %v, want %v", k, self[k], v)
		}
	}
	var rec reconciliation
	rec.addOp(&opTrace{on: true, spans: spans})
	// b and c overlap by 10 units, so the self times overshoot by 10%.
	if rec.worst < 0.099 || rec.worst > 0.101 || rec.ok() {
		t.Fatalf("overlapping children: worst %v ok %v; want 0.1, not ok", rec.worst, rec.ok())
	}
}

// TestDaemonLayoutCatchesMisplacedSpans lays out one daemon op from a
// consistent event stream, which reconciles, and from streams whose
// program spans disagree with what the client saw, which must not.
func TestDaemonLayoutCatchesMisplacedSpans(t *testing.T) {
	const ms = time.Millisecond
	inv := func(ts, dur time.Duration) trace.Event {
		return trace.Event{Cat: trace.CatInvocation, Phase: "X", TS: ts, Dur: dur}
	}
	// Running arrives at 2 ms, benchmark-done at 10, the terminal state at
	// 11, and the Get returns at 11.2; the program reports its benchmark
	// span at [1, 7.5) ms of its tracer, with two invocations inside.
	good := streamTimes{
		events: 9, running: 2 * ms, lastDone: 10 * ms, terminal: 11 * ms,
		benchTS: ms, benchDur: 6500 * time.Microsecond, haveBench: true,
		invocations: []trace.Event{inv(1500*time.Microsecond, 3*ms), inv(4600*time.Microsecond, 2800*time.Microsecond)},
	}
	longBench := good
	longBench.benchDur = 10 * ms // with benchTS, 1 ms more than from submit to done
	strayInv := good
	strayInv.invocations = []trace.Event{inv(1500*time.Microsecond, 3*ms), inv(7*ms, 3*ms)}
	for _, tc := range []struct {
		name string
		s    streamTimes
		ok   bool
	}{{"consistent", good, true}, {"benchmark longer than observed", longBench, false}, {"invocation outside its benchmark", strayInv, false}} {
		tr := newOpTrace(true)
		if err := layOut(tr, tc.s, 11200*time.Microsecond); err != nil {
			t.Fatal(err)
		}
		tr.spans[0].end = 11200 * time.Microsecond
		var rec reconciliation
		rec.addOp(tr)
		if rec.ok() != tc.ok {
			t.Errorf("%s: reconciles %v (err %.3f), want %v:\n%s", tc.name, rec.ok(), rec.worst, tc.ok, dumpSpans(tr.spans))
		}
	}
}

// TestTracedOpsReconcile runs a short traced pass of every workload and
// checks that per-layer self times sum to each op's time within
// reconcileTol, and that little of it is unattributed.
func TestTracedOpsReconcile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, clients, err := newWorkload(name, heldOutSeed, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer w.close()
			if _, err := w.setUp(); err != nil {
				t.Fatal(err)
			}
			p := runPhase(w, clients, 0, 1, traceAll)
			if p.failed > 0 {
				t.Fatalf("%d ops failed: %v", p.failed, p.errs)
			}
			var rec reconciliation
			for _, tr := range p.traces {
				var one reconciliation
				one.addOp(tr)
				if !one.ok() {
					t.Errorf("op does not reconcile (err %.3f, unattributed %.3f):\n%s",
						one.worst, one.unattributedFrac(), dumpSpans(tr.spans))
				}
				rec.addOp(tr)
			}
			if !rec.ok() {
				t.Errorf("pass does not reconcile: worst %.3f unattributed %.3f", rec.worst, rec.unattributedFrac())
			}
			layers := w.layers(p, 0)
			if len(layers) == 0 {
				t.Fatal("no per-layer metrics")
			}
		})
	}
}

func dumpSpans(spans []span) string {
	var b strings.Builder
	for i, s := range spans {
		fmt.Fprintf(&b, "  %2d %-12s parent %2d  %10v .. %10v  (%v)\n", i, s.layer, s.parent, s.start, s.end, s.end-s.start)
	}
	return b.String()
}

// TestHeldOutSeedPassesEveryCheck runs one rotation of every workload on a
// seed the benchmark was not tuned on, with every output check.
func TestHeldOutSeedPassesEveryCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, clients, err := newWorkload(name, heldOutSeed, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer w.close()
			if _, err := w.setUp(); err != nil {
				t.Fatal(err)
			}
			p := runPhase(w, clients, 0, 1, traceOff)
			failed, err := checkedFailures(w, p)
			if err != nil || failed != 0 {
				t.Fatalf("%d of %d ops failed (%v): %v", failed, p.attempted, err, p.errs)
			}
		})
	}
}

// TestMisleadingDigests checks the committed error-rate digests of the
// default seed; -update rewrites them.
func TestMisleadingDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every profile")
	}
	w, err := newMisleading(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		w.want = nil
	}
	if _, err := w.setUp(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("# error-rate row digest per benchmark for seed 1\n")
	for i, bench := range w.benches {
		if _, err := w.op(0, i, newOpTrace(false)); err != nil {
			t.Errorf("%s: %v", bench.Name, err)
		}
		fmt.Fprintf(&b, "%s %s\n", bench.Name, w.got[i])
	}
	if *update {
		if err := os.WriteFile("testdata/misleading_digests.txt", []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
