package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/minipy"
	"repro/internal/workloads"
)

// probePasses is how many times the set-up probe times every program; it
// reports the median pass.
const probePasses = 3

// setupProbe times the front end and the analysis on the set-up inputs,
// one call per program and layer, and a fresh code-cache fill, which runs
// them all again. It reports each as the mean ms per program.
func setupProbe() (map[string]float64, error) {
	benches := inventory()
	passes := map[string][]float64{}
	for range probePasses {
		var compile, verify, check, analyze, fill time.Duration
		cache := workloads.NewCodeCache()
		for _, b := range benches {
			t0 := time.Now()
			code, err := minipy.CompileSource(b.Source)
			if err != nil {
				return nil, fmt.Errorf("compiling %s: %w", b.Name, err)
			}
			t1 := time.Now()
			if err := minipy.Verify(code); err != nil {
				return nil, fmt.Errorf("verifying %s: %w", b.Name, err)
			}
			t2 := time.Now()
			if err := analysis.Check(code); err != nil {
				return nil, fmt.Errorf("checking %s: %w", b.Name, err)
			}
			t3 := time.Now()
			rep, err := analysis.Analyze(code)
			if err != nil {
				return nil, fmt.Errorf("analyzing %s: %w", b.Name, err)
			}
			rep.Summarize()
			t4 := time.Now()
			if _, _, err := cache.Get(b); err != nil {
				return nil, err
			}
			compile += t1.Sub(t0)
			verify += t2.Sub(t1)
			check += t3.Sub(t2)
			analyze += t4.Sub(t3)
			fill += time.Since(t4)
		}
		n := float64(len(benches))
		passes["minipy.compile_ms"] = append(passes["minipy.compile_ms"], ms(compile)/n)
		passes["minipy.verify_ms"] = append(passes["minipy.verify_ms"], ms(verify)/n)
		passes["analysis.check_ms"] = append(passes["analysis.check_ms"], ms(check)/n)
		passes["analysis.analyze_ms"] = append(passes["analysis.analyze_ms"], ms(analyze)/n)
		passes["workloads.cache_fill_ms"] = append(passes["workloads.cache_fill_ms"], ms(fill)/n)
	}
	out := map[string]float64{}
	for k, xs := range passes {
		out[k] = median(xs)
	}
	return out, nil
}

// layerUnit is the unit of a per-layer metric, read off its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_frac"):
		return "fraction"
	case strings.HasSuffix(name, "_kb"):
		return "KiB"
	case strings.Contains(name, "_mb"):
		return "MB"
	case strings.Contains(name, "msteps_per_s"):
		return "Msteps/s"
	case strings.Contains(name, "_ms"):
		return "ms"
	}
	return "count"
}
