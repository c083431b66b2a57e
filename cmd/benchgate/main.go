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
// per-invocation sample set (times, cycles, steps, checksums; see
// harness.SameSamples), invocation by invocation — the property isolated
// and resumed runs guarantee against the in-process run at equal seeds
// (DESIGN.md §10, §12). benchgate is the one gate for simulated samples;
// the memory gate over benchjson documents lives in cmd/benchjson.
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
	"repro/internal/stats"
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

	if *equivalence {
		return runEquivalence(base, cand, stdout, stderr)
	}
	return runGate(base, cand, stats.GateThresholds{
		Confidence: *confidence,
		MinEffect:  *minEffect,
		Resamples:  *resamples,
	}, *seed, stdout, stderr)
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

// runEquivalence checks the determinism contract, harness.SameSamples:
// identical per-invocation measurement vectors in canonical invocation
// order.
func runEquivalence(base, cand *harness.Result, stdout, stderr io.Writer) int {
	if err := harness.SameSamples(base, cand); err != nil {
		fmt.Fprintln(stderr, "benchgate: FAIL:", err)
		return 1
	}
	fmt.Fprintf(stdout, "benchgate: PASS: %d invocations bit-identical (%s/%s)\n",
		len(base.Invocations), base.Benchmark, base.Mode)
	return 0
}
