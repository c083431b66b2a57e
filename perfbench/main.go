// Command perfbench is the repository benchmark. It drives the program
// through its public entry points in four closed-loop workloads —
// suite-pair, misleading-rates, rigorous-compare and daemon-2c — checks
// every op's output, and prints one JSON object as the last line of its
// output: end-to-end metrics for an untraced run, per-layer metrics for a
// traced one.
// README.md says why each workload exists and what each metric measures.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload rigorous-compare --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"syscall"
	"time"
)

// defaultSeed is the seed the committed misleading-rates digests hold for.
const defaultSeed = 1

// minTimedOps is the fewest ops a timed phase runs: p90 needs ten samples
// beyond it.
const minTimedOps = 100

// workloadNames lists the workloads in the order a traced run visits them.
var workloadNames = []string{"suite-pair", "misleading-rates", "rigorous-compare", "daemon-2c"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: suite-pair, misleading-rates, rigorous-compare or daemon-2c")
	seed := flag.Uint64("seed", defaultSeed, "workload seed (campaign and trial seeds derive from it)")
	seconds := flag.Float64("seconds", 20, "work of the timed phase: the whole rotations a reference host runs in this many seconds")
	traced := flag.Int("trace", 0, "1 for a traced run that reports per-layer metrics")
	flag.Parse()
	if flag.NArg() > 0 || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	if !slices.Contains(workloadNames, *name) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *name, workloadNames)
		os.Exit(2)
	}
	// Each run has a scratch dir of its own, so runs in one checkout never
	// remove each other's data dirs.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	scratch, err := os.MkdirTemp(".bench_build", "perfbench-scratch-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *traced == 1 {
		res, err = tracedRun(*name, *seed, budget, scratch)
	} else {
		res, err = timedRun(*name, *seed, budget, scratch)
	}
	if rmErr := os.RemoveAll(scratch); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// newWorkload returns the named workload and its number of clients.
func newWorkload(name string, seed uint64, scratch string) (workload, int, error) {
	switch name {
	case "suite-pair":
		return newSuitePair(seed), 1, nil
	case "misleading-rates":
		w, err := newMisleading(seed)
		return w, 1, err
	case "rigorous-compare":
		w, err := newRigorousCompare(seed)
		return w, 1, err
	case "daemon-2c":
		return newDaemon(seed, scratch), 1, nil
	}
	return nil, 0, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// timedRun is the untraced run: the end-to-end metrics of one workload.
func timedRun(name string, seed uint64, budget time.Duration, scratch string) (*result, error) {
	w, clients, err := newWorkload(name, seed, scratch)
	if err != nil {
		return nil, err
	}
	defer w.close()
	setupS, p, err := setUpAndRun(w, clients, rotationsFor(w, clients, budget, minTimedOps), traceOff)
	if err != nil {
		return nil, err
	}
	failed, err := checkedFailures(w, p)
	if err != nil {
		return nil, err
	}
	p50, err := percentile(p.lat, 0.5)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(p.lat, 0.9)
	if err != nil {
		return nil, err
	}
	first, err := percentile(p.first, 0.5)
	if err != nil {
		return nil, err
	}
	n := float64(p.attempted)
	return &result{
		Correct:   failed == 0,
		Attempted: p.attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":            {setupS, "s"},
			"op_ms_p50":          {p50, "ms"},
			"op_ms_p90":          {p90, "ms"},
			"ops_per_s":          {n / p.elapsed.Seconds(), "1/s"},
			"first_event_ms_p50": {first, "ms"},
			"alloc_mb_per_op":    {float64(p.allocBytes) / 1e6 / n, "MB"},
			"max_rss_mb":         {maxRSSMB(), "MB"},
		},
	}, nil
}

// checkedFailures adds the failures of the whole-phase output checks to
// the ops that failed on their own, and reports the first few.
func checkedFailures(w workload, p *phase) (int, error) {
	more, err := w.check()
	if err != nil {
		return 0, fmt.Errorf("output check: %w", err)
	}
	for _, e := range p.errs {
		fmt.Fprintln(os.Stderr, "perfbench: op failed:", e)
	}
	if more > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d ops differ from their one-shot reference\n", more)
	}
	return min(p.failed+more, p.attempted), nil
}

// tracedRun is the traced run. Every workload runs a traced pass, so
// every per-layer metric is measured: the named one for the whole budget,
// alternating traced and untraced rotations to price the tracing, the
// others for a quarter of it.
func tracedRun(target string, seed uint64, budget time.Duration, scratch string) (*result, error) {
	values, err := setupProbe()
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true}
	for _, name := range workloadNames {
		w, clients, err := newWorkload(name, seed, scratch)
		if err != nil {
			return nil, err
		}
		mode, b := traceAll, budget/4
		if name == target {
			mode, b = traceAlternate, budget
		}
		setupS, p, err := setUpAndRun(w, clients, rotationsFor(w, clients, b, 0), mode)
		if err != nil {
			w.close()
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		failed, err := checkedFailures(w, p)
		w.close()
		if err != nil {
			return nil, err
		}
		res.Attempted += p.attempted
		res.Failed += failed
		if len(p.traces) == 0 {
			return nil, fmt.Errorf("%s: no traced op succeeded", name)
		}
		for k, v := range w.layers(p, setupS) {
			values[k] = v
		}
		var rec reconciliation
		for _, t := range p.traces {
			rec.addOp(t)
		}
		if !rec.ok() {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s does not reconcile: worst op %.4f, unattributed %.4f (tolerance %g)\n",
				name, rec.worst, rec.unattributedFrac(), reconcileTol)
		}
		values["trace.unattributed_frac"] = max(values["trace.unattributed_frac"], rec.unattributedFrac())
		if name == target {
			values["trace.overhead_frac"] = p.overheadFrac()
		}
	}
	res.Correct = res.Correct && res.Failed == 0
	res.Metrics = map[string]metric{}
	for k, v := range values {
		res.Metrics[k] = metric{v, layerUnit(k)}
	}
	return res, nil
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}
