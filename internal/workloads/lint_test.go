package workloads

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/minipy"
)

// intentionalFindings pins analyzer findings in shipped workloads that are
// deliberate. Keyed benchmark → rule → count; any finding not listed here
// fails the dogfood test, so a workload edit that introduces a new dead
// store or unreachable block must either fix it or pin it explicitly.
var intentionalFindings = map[string]map[string]int{}

// TestSuiteLintsClean runs the full static-analysis pipeline over every
// shipped workload (canonical suite + extended set) and asserts:
//   - zero error-severity findings (Compile would reject the workload);
//   - zero warnings and dead stores beyond the pinned intentional set;
//   - every workload earns a determinism certificate (the purity audit is
//     what licenses cross-run comparison of its results).
func TestSuiteLintsClean(t *testing.T) {
	all := append(append([]Benchmark{}, Suite()...), Extended()...)
	for _, b := range all {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			rep, err := b.Analyze()
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			pinned := intentionalFindings[b.Name]
			seen := map[string]int{}
			for _, d := range rep.Diagnostics {
				if d.Severity == analysis.Info {
					continue // unused loop vars are idiomatic in benchmarks
				}
				seen[d.Rule]++
				if seen[d.Rule] > pinned[d.Rule] {
					t.Errorf("unpinned finding: %s", d)
				}
			}
			for rule, want := range pinned {
				if seen[rule] != want {
					t.Errorf("pinned %d %s findings but analyzer reported %d (update intentionalFindings)",
						want, rule, seen[rule])
				}
			}
			if !rep.Certificate.Determinism.Certified {
				t.Errorf("determinism certificate refused: unresolved globals %v",
					rep.Certificate.Determinism.UnresolvedGlobals)
			}
			sum := rep.Summarize()
			if sum.TypedInstrPct <= 0 {
				t.Errorf("type inference produced no typed instructions (%.2f%%)", sum.TypedInstrPct)
			}
		})
	}
}

// TestSuiteLintsCleanOptimized re-runs the dogfood pass over every workload's
// -opt 2 bytecode: the analyzer must decode superinstructions (CFG edges
// out of BINARY_JUMP_IF_FALSE, fused-load uses in liveness and definite
// assignment) and still certify the optimized stream. A fusion or folding
// bug that confuses the dataflow passes fails here before it can distort
// an A7 or A8 arm.
func TestSuiteLintsCleanOptimized(t *testing.T) {
	all := append(append([]Benchmark{}, Suite()...), Extended()...)
	for _, b := range all {
		t.Run(b.Name+"/opt2", func(t *testing.T) {
			base, err := b.Compile()
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			opt, err := minipy.Optimize(base, 2, analysis.OptimizationFacts(base))
			if err != nil {
				t.Fatalf("optimize: %v", err)
			}
			rep, err := analysis.Analyze(opt)
			if err != nil {
				t.Fatalf("analyze optimized: %v", err)
			}
			for _, d := range rep.Diagnostics {
				if d.Severity == analysis.Info {
					continue
				}
				// The optimizer may only remove findings (dead stores are
				// eliminated), never introduce them.
				if intentionalFindings[b.Name][d.Rule] == 0 {
					t.Errorf("optimized bytecode grew a finding: %s", d)
				}
			}
			if !rep.Certificate.Determinism.Certified {
				t.Errorf("optimized code lost its determinism certificate: unresolved globals %v",
					rep.Certificate.Determinism.UnresolvedGlobals)
			}
			if sum := rep.Summarize(); sum.TypedInstrPct <= 0 {
				t.Errorf("type inference over fused opcodes produced no typed instructions (%.2f%%)",
					sum.TypedInstrPct)
			}
		})
	}
}
