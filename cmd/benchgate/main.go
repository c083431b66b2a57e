// Command benchgate is the CI perf-regression gate: it compares two result
// files written by `pybench -bench NAME -json` — a committed baseline and a
// fresh candidate — with the repository's own statistics (hierarchical
// bootstrap ratio CI on the candidate/baseline runtime, plus a minimum
// practical effect size) and exits non-zero when the candidate is a
// statistically sound slowdown.
//
// Usage:
//
//	benchgate -baseline base.json -candidate cand.json
//	benchgate -baseline base.json -candidate cand.json -confidence 0.99 -min-effect 0.02
//	benchgate -baseline seq.json -candidate iso.json -equivalence
//
// -equivalence switches to the determinism check: instead of a
// statistical comparison, the two results must contain the *identical*
// per-invocation sample set (times, cycles, steps), invocation by
// invocation — the property isolated and resumed runs guarantee against
// the in-process run at equal seeds (DESIGN.md §10, §12). The memory
// gate over benchjson documents lives in cmd/benchjson.
//
// Exit codes follow the repository taxonomy: 0 = pass; 1 = regression (or
// equivalence failure); 2 = usage (bad flags, incomparable inputs); 3 =
// infrastructure (unreadable or undecodable result files).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/exitcode"
	"repro/internal/harness"
	"repro/internal/perfstore"
	"repro/internal/stats"
	"repro/internal/wal"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable streams and an exit code, so tests drive the
// whole CLI in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		basePath    = fs.String("baseline", "", "baseline result JSON (from pybench -bench NAME -json)")
		candPath    = fs.String("candidate", "", "candidate result JSON to gate")
		equivalence = fs.Bool("equivalence", false, "require bit-identical per-invocation sample sets instead of a statistical comparison")
		confidence  = fs.Float64("confidence", stats.DefaultGateConfidence, "CI level for the regression decision")
		minEffect   = fs.Float64("min-effect", stats.DefaultGateMinEffect, "minimum relative slowdown treated as a regression (negative = none)")
		resamples   = fs.Int("resamples", 0, "bootstrap resamples (0 = library default)")
		seed        = fs.Uint64("seed", 1, "bootstrap RNG seed (the gate decision is deterministic per seed)")
		histPath    = fs.String("history", "", "benchtrack history (BENCH_history.jsonl): print the longitudinal trend next to the verdict")
		trendLast   = fs.Int("trend-last", 10, "trend window (runs) for the -history summary")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *basePath == "" || *candPath == "" {
		fmt.Fprintln(stderr, "benchgate: both -baseline and -candidate are required")
		fs.Usage()
		return 2
	}
	base, err := readResult(*basePath)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return exitcode.Infra
	}
	cand, err := readResult(*candPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return exitcode.Infra
	}
	if base.Benchmark != cand.Benchmark || base.Mode != cand.Mode {
		fmt.Fprintf(stderr, "benchgate: results are not comparable: baseline is %s/%s, candidate is %s/%s\n",
			base.Benchmark, base.Mode, cand.Benchmark, cand.Mode)
		return 2
	}

	var code int
	if *equivalence {
		code = runEquivalence(base, cand, stdout, stderr)
	} else {
		code = runGate(base, cand, stats.GateThresholds{
			Confidence: *confidence,
			MinEffect:  *minEffect,
			Resamples:  *resamples,
		}, *seed, stdout, stderr)
	}
	// The two-snapshot verdict and the trajectory view cross-reference each
	// other: a PASS here can still sit on a slow multi-run drift, and a
	// FAIL is easier to triage next to the commit-attributed history.
	if *histPath != "" {
		printTrend(*histPath, base.Benchmark, *trendLast, stdout, stderr)
	}
	return code
}

// printTrend prints benchtrack's one-line longitudinal summary for the
// gated benchmark. Trend problems never change the gate verdict — the
// trajectory alert lives in `benchtrack report` — so failures here only
// warn.
func printTrend(histPath, benchmark string, lastN int, stdout, stderr io.Writer) {
	store, err := perfstore.Open(wal.OSFS{}, histPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate: trend unavailable:", err)
		return
	}
	//benchlint:allow uncheckederr — read-only use of the journal
	defer store.Close()
	line := perfstore.TrendLine(store.Runs(), store.Acked(), benchmark, lastN)
	if line == "" {
		fmt.Fprintf(stdout, "benchgate: no longitudinal history for %s in %s\n", benchmark, histPath)
		return
	}
	fmt.Fprintf(stdout, "benchgate: %s\n", line)
}

func readResult(path string) (*harness.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	//benchlint:allow uncheckederr — file opened read-only
	defer f.Close()
	res, err := harness.ReadResultJSON(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(res.Invocations) == 0 {
		return nil, fmt.Errorf("%s: result has no invocations", path)
	}
	return res, nil
}

// runGate performs the statistical regression decision.
func runGate(base, cand *harness.Result, th stats.GateThresholds, seed uint64,
	stdout, stderr io.Writer) int {
	hb, repB := stats.Sanitize(base.Hierarchical())
	hc, repC := stats.Sanitize(cand.Hierarchical())
	if !repB.Clean() || !repC.Clean() {
		fmt.Fprintf(stdout, "benchgate: sanitized inputs (baseline: %d quarantined/%d dropped; candidate: %d/%d)\n",
			repB.QuarantinedSamples, repB.DroppedInvocations,
			repC.QuarantinedSamples, repC.DroppedInvocations)
	}
	v := stats.PerfGate(hb, hc, th, stats.NewRNG(seed))
	fmt.Fprintf(stdout,
		"benchgate: %s/%s: runtime ratio %.4f (candidate/baseline), %g%% CI [%.4f, %.4f], Cohen's d %.2f, min effect %.1f%%\n",
		base.Benchmark, base.Mode, v.Ratio, 100*v.CI.Confidence, v.CI.Lo, v.CI.Hi,
		v.EffectD, 100*v.MinEffect)
	switch {
	case v.Slowdown:
		fmt.Fprintf(stderr, "benchgate: FAIL: statistically significant slowdown of %.1f%% (CI excludes 1)\n",
			100*(v.Ratio-1))
		return 1
	case v.Speedup:
		fmt.Fprintf(stdout, "benchgate: PASS: statistically significant speedup of %.1f%%\n",
			100*(1-v.Ratio))
	case v.Significant():
		fmt.Fprintln(stdout, "benchgate: PASS: shift is statistically detectable but below the practical-effect floor")
	default:
		fmt.Fprintln(stdout, "benchgate: PASS: no statistically significant change")
	}
	return 0
}

// runEquivalence checks the determinism contract: identical
// per-invocation measurement vectors in canonical invocation order.
func runEquivalence(base, cand *harness.Result, stdout, stderr io.Writer) int {
	if len(base.Invocations) != len(cand.Invocations) {
		fmt.Fprintf(stderr, "benchgate: FAIL: invocation counts differ: %d vs %d\n",
			len(base.Invocations), len(cand.Invocations))
		return 1
	}
	for i := range base.Invocations {
		bi, ci := base.Invocations[i], cand.Invocations[i]
		if err := equalVectors(bi.TimesSec, ci.TimesSec); err != nil {
			fmt.Fprintf(stderr, "benchgate: FAIL: invocation %d times differ: %v\n", i, err)
			return 1
		}
		if err := equalUints(bi.Cycles, ci.Cycles); err != nil {
			fmt.Fprintf(stderr, "benchgate: FAIL: invocation %d cycles differ: %v\n", i, err)
			return 1
		}
		if err := equalUints(bi.Steps, ci.Steps); err != nil {
			fmt.Fprintf(stderr, "benchgate: FAIL: invocation %d steps differ: %v\n", i, err)
			return 1
		}
		if bi.Checksum != ci.Checksum {
			fmt.Fprintf(stderr, "benchgate: FAIL: invocation %d checksums differ: %s vs %s\n",
				i, bi.Checksum, ci.Checksum)
			return 1
		}
	}
	fmt.Fprintf(stdout, "benchgate: PASS: %d invocations bit-identical (%s/%s)\n",
		len(base.Invocations), base.Benchmark, base.Mode)
	return 0
}

func equalVectors(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("lengths %d vs %d", len(a), len(b))
	}
	for j := range a {
		if a[j] != b[j] {
			return fmt.Errorf("iteration %d: %v vs %v", j, a[j], b[j])
		}
	}
	return nil
}

func equalUints(a, b []uint64) error {
	if len(a) != len(b) {
		return fmt.Errorf("lengths %d vs %d", len(a), len(b))
	}
	for j := range a {
		if a[j] != b[j] {
			return fmt.Errorf("iteration %d: %d vs %d", j, a[j], b[j])
		}
	}
	return nil
}
