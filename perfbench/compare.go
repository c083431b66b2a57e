package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"repro/internal/methodology"
	"repro/internal/stats"
)

// The campaign size of one rigorous-compare op, pybench's full default,
// and how many campaign pairs a rotation draws per benchmark. How long a
// comparison takes depends on its samples, so several draws keep the
// work of a rotation from hanging on the seed.
const (
	rcInvocations = 10
	rcIterations  = 30
	rcDraws       = 5
)

// rigorousCompare is the analysis step of the paper's core use: one op is
// methodology.Rigorous.Compare of one benchmark's interp and JIT campaigns
// at full size, steady-state detection and the hierarchical bootstrap over
// 2 × 300 samples. Set-up is misleading-rates' set-up, the noise-free
// profiles, plus drawing rcDraws pairs of campaigns per benchmark from them
// with noise.Default(). The stats and methodology layers do all the work of an
// op, the VM none.
type rigorousCompare struct {
	m *misleading
	// ops is the rotation; samples holds each op's two campaigns.
	ops     []string
	samples [][2]stats.HierarchicalSample
	// got holds the first digest each op produced in this run.
	got []string
}

func newRigorousCompare(seed uint64) (*rigorousCompare, error) {
	m, err := newMisleading(seed)
	if err != nil {
		return nil, err
	}
	var ops []string
	for _, b := range m.benches {
		for d := range rcDraws {
			ops = append(ops, fmt.Sprintf("%s/%d", b.Name, d))
		}
	}
	return &rigorousCompare{m: m, ops: ops, got: make([]string, len(ops))}, nil
}

func (w *rigorousCompare) setupReps() (int, int)   { return 5, 1 }
func (w *rigorousCompare) nominalOpsPerS() float64 { return 150 }
func (w *rigorousCompare) rotation(int) []string   { return w.ops }
func (w *rigorousCompare) check() (int, error)     { return 0, nil }
func (w *rigorousCompare) close()                  {}

// setUp builds the noise-free profiles and draws, for every op of the
// rotation, a pair of interp and JIT campaigns from them.
func (w *rigorousCompare) setUp() (float64, error) {
	start := time.Now()
	if _, err := w.m.setUp(); err != nil {
		return 0, err
	}
	w.samples = make([][2]stats.HierarchicalSample, len(w.ops))
	for i, name := range w.ops {
		for k, mode := range []string{"interp", "jit"} {
			seed := campaignSeed(w.m.seed, "compare/"+mode+"/"+name)
			w.samples[i][k] = w.m.gens[i/rcDraws][k].Sample(seed, rcInvocations, rcIterations)
		}
	}
	return time.Since(start).Seconds(), nil
}

func (w *rigorousCompare) op(_, i int, t *opTrace) (time.Duration, error) {
	r := methodology.Rigorous{Seed: campaignSeed(w.m.seed, "compare/"+w.ops[i])}
	start := t.now()
	cmp := r.Compare(w.samples[i][0], w.samples[i][1])
	t.since("methodology", 0, start)
	return t.now(), w.checkComparison(i, cmp)
}

// checkComparison checks one op's comparison: a finite positive speedup
// and interval, a verdict that agrees with the interval, a warm-up cut of
// at most half the iterations, and the same comparison, bit for bit, as
// the op's first run.
func (w *rigorousCompare) checkComparison(i int, c methodology.Comparison) error {
	sp, ci := c.Speedup, c.CI
	for _, x := range []float64{sp, ci.Lo, ci.Hi} {
		if math.IsNaN(x) || math.IsInf(x, 0) || x <= 0 {
			return fmt.Errorf("implausible comparison %+v", c)
		}
	}
	if ci.Lo > ci.Hi || c.WarmupDropped < 0 || c.WarmupDropped > rcIterations/2 {
		return fmt.Errorf("implausible comparison %+v", c)
	}
	if contains := ci.Lo <= 1 && 1 <= ci.Hi; contains != (c.Verdict == methodology.Indistinguishable) {
		return fmt.Errorf("verdict %v disagrees with the interval [%g, %g]", c.Verdict, ci.Lo, ci.Hi)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%x %x %x %d %d", math.Float64bits(sp), math.Float64bits(ci.Lo), math.Float64bits(ci.Hi),
		c.Verdict, c.WarmupDropped)
	d := hex.EncodeToString(h.Sum(nil))[:16]
	if w.got[i] == "" {
		w.got[i] = d
	} else if w.got[i] != d {
		return fmt.Errorf("comparison digest %s differs from this run's first %s", d, w.got[i])
	}
	return nil
}

func (w *rigorousCompare) layers(p *phase, _ float64) map[string]float64 {
	return map[string]float64{
		"methodology.campaign_compare_ms_per_op": layerMs(p.traces, "methodology") / float64(len(p.traces)),
	}
}
