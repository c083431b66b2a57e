package analysis_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/minipy"
)

// lintRow renders everything the linter says about one program: the
// summary counts (certificate excluded, the cert goldens pin that), each
// function's typed and reachable instruction counts, and every diagnostic
// in report order.
func lintRow(name, src string) (string, error) {
	code, err := minipy.CompileSource(src)
	if err != nil {
		return "", err
	}
	rep, err := analysis.Analyze(code)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	s := rep.Summarize()
	fmt.Fprintf(&sb, "== %s\n", name)
	fmt.Fprintf(&sb, "summary functions=%d blocks=%d instructions=%d unreachable=%d dead_stores=%d unused_loop_vars=%d typed_pct=%v errors=%d warnings=%d\n",
		s.Functions, s.Blocks, s.Instructions, s.UnreachableInstrs, s.DeadStores,
		s.UnusedLoopVars, s.TypedInstrPct, s.Errors, s.Warnings)
	for _, f := range rep.Funcs {
		fmt.Fprintf(&sb, "func %s typed=%d reachable=%d\n", f.Name, f.Typed, f.ReachableInstrs)
	}
	for _, d := range rep.Diagnostics {
		fmt.Fprintf(&sb, "diag %s %s %s line=%d pc=%d: %s\n", d.Severity, d.Rule, d.Func, d.Line, d.PC, d.Msg)
	}
	return sb.String(), nil
}

// TestLintGolden pins the lint verdict on every corpus program and every
// defect program of the rule tests: diagnostics, summary counts and typed
// coverage. Refresh with -update only when a lint rule is meant to change.
func TestLintGolden(t *testing.T) {
	var sb strings.Builder
	for i, b := range corpus() {
		row, err := lintRow(fmt.Sprintf("corpus/%d %s", i, b.Name), b.Source)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		sb.WriteString(row)
	}
	for _, p := range analysis.LintGoldenDefects() {
		row, err := lintRow("defect/"+p.Name, p.Src)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		sb.WriteString(row)
	}
	got := sb.String()
	golden := filepath.Join("testdata", "lint.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("lint verdict drifted from %s at line %d:\n got: %s\nwant: %s", golden, i+1, g, w)
		}
	}
}
