package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/methodology"
	"repro/internal/noise"
	"repro/internal/stats"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// The Table-4 design of one misleading-rates op.
const (
	mrIterations  = 16
	mrInvocations = 6
	mrTrials      = 10
	mrEquivBand   = 0.01
)

// misleadingDigests holds, for the default seed, one digest per
// benchmark of the error rates its op must produce. Regenerate with
// `go test -run TestMisleadingDigests -update` in this directory.
//
//go:embed testdata/misleading_digests.txt
var misleadingDigests []byte

// misleading is the paper's misleading-conclusion trials (Table 4). Set-up
// builds noise-free interp and JIT profiles of every benchmark; one op is
// one benchmark's row: every methodology evaluated over synthetic trials.
// The stats and methodology layers do nearly all the work, the VM none.
type misleading struct {
	seed    uint64
	benches []workloads.Benchmark
	gens    [][2]methodology.TrialGenerator
	// want maps a benchmark to its committed row digest (default seed
	// only); got holds the first digest each op produced in this run.
	want map[string]string
	got  []string
	// profileMs is the time the last set-up spent building profiles.
	profileMs float64
}

func newMisleading(seed uint64) (*misleading, error) {
	w := &misleading{seed: seed, benches: inventory()}
	w.got = make([]string, len(w.benches))
	if seed == defaultSeed {
		want, err := parseDigests(misleadingDigests)
		if err != nil {
			return nil, err
		}
		w.want = want
	}
	return w, nil
}

func parseDigests(data []byte) (map[string]string, error) {
	out := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) != 2 {
			return nil, fmt.Errorf("bad digest line %q", sc.Text())
		}
		out[f[0]] = f[1]
	}
	return out, sc.Err()
}

func (w *misleading) setupReps() (int, int)   { return 7, 1 }
func (w *misleading) nominalOpsPerS() float64 { return 48 }
func (w *misleading) rotation(int) []string   { return names(w.benches) }
func (w *misleading) check() (int, error)     { return 0, nil }
func (w *misleading) close()                  {}

// setUp fills a fresh code cache and builds the noise-free profiles.
func (w *misleading) setUp() (float64, error) {
	start := time.Now()
	r, err := filledRunner(w.benches)
	if err != nil {
		return 0, err
	}
	ps := time.Now()
	gens := make([][2]methodology.TrialGenerator, len(w.benches))
	for i, b := range w.benches {
		for k, mode := range []vm.Mode{vm.ModeInterp, vm.ModeJIT} {
			res, err := r.Run(b, harness.Options{
				Mode:        mode,
				Invocations: 1,
				Iterations:  mrIterations,
				Noise:       noise.None(),
			})
			if err != nil {
				return 0, fmt.Errorf("profiling %s: %w", b.Name, err)
			}
			gens[i][k] = methodology.TrialGenerator{Base: res.Invocations[0].TimesSec, Noise: noise.Default()}
		}
	}
	w.profileMs = ms(time.Since(ps))
	w.gens = gens
	return time.Since(start).Seconds(), nil
}

// methodologies lists the op's methodologies, the rigorous one first: its
// row is the one a reader of Table 4 waits for.
func methodologies(seed uint64) []methodology.Methodology {
	all := methodology.All(seed)
	return append(all[len(all)-1:], all[:len(all)-1]...)
}

func (w *misleading) op(_, i int, t *opTrace) (time.Duration, error) {
	b := w.benches[i]
	seed := campaignSeed(w.seed, b.Name)
	rates := make([]methodology.ErrorRates, 0, 6)
	var first time.Duration
	for k, m := range methodologies(seed) {
		start := t.now()
		er := methodology.EvaluateMethodology(m, w.gens[i][0], w.gens[i][1],
			mrInvocations, mrIterations, mrTrials, mrEquivBand, seed)
		t.since("methodology", 0, start)
		if _, ok := m.(methodology.Rigorous); ok {
			t.val("methodology.rigorous_ns", float64(t.now()-start))
		} else {
			t.val("methodology.naive_ns", float64(t.now()-start))
		}
		if k == 0 {
			first = t.now()
		}
		rates = append(rates, er)
	}
	return first, w.checkRow(i, rates)
}

// checkRow checks one op's error rates: sane counts, the committed digest
// for the default seed, and the same row as the op's first run.
func (w *misleading) checkRow(i int, rates []methodology.ErrorRates) error {
	for _, er := range rates {
		if er.Trials != mrTrials || er.Misleading < 0 || er.Missed < 0 ||
			er.Misleading+er.Missed > er.Trials ||
			math.IsNaN(er.MeanRelErr) || er.MeanRelErr < 0 {
			return fmt.Errorf("implausible error rates %+v", er)
		}
	}
	d := rowDigest(rates)
	name := w.benches[i].Name
	if w.want != nil && w.want[name] != d {
		return fmt.Errorf("error-rate digest %s, committed %s", d, w.want[name])
	}
	if w.got[i] == "" {
		w.got[i] = d
	} else if w.got[i] != d {
		return fmt.Errorf("error-rate digest %s differs from this run's first %s", d, w.got[i])
	}
	return nil
}

// rowDigest is a short hash of a row's exact error rates.
func rowDigest(rates []methodology.ErrorRates) string {
	h := sha256.New()
	for _, er := range rates {
		fmt.Fprintf(h, "%s %d %d %d %x;", er.Methodology, er.Trials, er.Misleading,
			er.Missed, math.Float64bits(er.MeanRelErr))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// replay re-draws a traced op's trial samples with the same seeds and
// times the three steps of the rigorous methodology separately: sample
// generation (every methodology), steady-state classification and the
// hierarchical bootstrap (rigorous only).
func (w *misleading) replay(_, i int, t *opTrace) {
	b := w.benches[i]
	seed := campaignSeed(w.seed, b.Name)
	gi, gj := w.gens[i][0], w.gens[i][1]
	var sample, steady, boot time.Duration
	for _, m := range methodologies(seed) {
		r, rigorous := m.(methodology.Rigorous)
		rng := stats.NewRNG(seed)
		for range mrTrials {
			sa, sb := rng.Uint64(), rng.Uint64()
			t0 := time.Now()
			ha := gi.Sample(sa, mrInvocations, mrIterations)
			hb := gj.Sample(sb, mrInvocations, mrIterations)
			t1 := time.Now()
			sample += t1.Sub(t0)
			if !rigorous {
				continue
			}
			ta, tb := trimWarmup(ha), trimWarmup(hb)
			t2 := time.Now()
			steady += t2.Sub(t1)
			stats.BootstrapHierarchicalRatioCI(ta, tb, 0.95, r.Resamples, stats.NewRNG(r.Seed^0xB00757A9))
			boot += time.Since(t2)
		}
	}
	t.val("methodology.sample_ns", float64(sample))
	t.val("stats.steady_ns", float64(steady))
	t.val("stats.bootstrap_ns", float64(boot))
}

// trimWarmup drops each invocation's warm-up iterations the way the
// rigorous methodology does: the changepoint classifier's steady start,
// the tail half when there is no steady state, at most half the series.
func trimWarmup(h stats.HierarchicalSample) stats.HierarchicalSample {
	out := make([][]float64, len(h.Times))
	for i, inv := range h.Times {
		res := stats.ClassifySteadyState(inv, 0, 0, 0)
		start := 0
		switch res.Class {
		case stats.ClassWarmup, stats.ClassSlowdown:
			start = res.SteadyStart
		case stats.ClassNoSteadyState:
			start = len(inv) / 2
		}
		start = min(start, len(inv)/2)
		out[i] = inv[start:]
	}
	return stats.HierarchicalSample{Times: out}
}

func (w *misleading) layers(p *phase, _ float64) map[string]float64 {
	v := sumVals(p.traces)
	n := float64(len(p.traces))
	return map[string]float64{
		"methodology.rigorous_ms_per_op": v["methodology.rigorous_ns"] / 1e6 / n,
		"methodology.naive_ms_per_op":    v["methodology.naive_ns"] / 1e6 / n,
		"methodology.sample_ms_per_op":   v["methodology.sample_ns"] / 1e6 / n,
		"stats.steady_ms_per_op":         v["stats.steady_ns"] / 1e6 / n,
		"stats.bootstrap_ms_per_op":      v["stats.bootstrap_ns"] / 1e6 / n,
		"harness.profile_ms":             w.profileMs,
	}
}
