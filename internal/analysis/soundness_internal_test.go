package analysis

import (
	"testing"

	"repro/internal/minipy"
	"repro/internal/vm"
)

// These tests prove the soundness checker is not vacuous: a deliberately
// falsified certificate must produce violations. Each test computes real
// facts, tampers with one claim family, runs the program under the
// checker, and asserts the lie is caught. (The honest-certificate
// direction is covered across the whole suite in soundness_test.go.)

func tamperRun(t *testing.T, src string, facts *ModuleFacts) []Violation {
	t.Helper()
	code := facts.Module
	chk := NewSoundnessChecker(facts)
	in := vm.New(vm.Config{Mode: vm.ModeInterp, Tracer: chk})
	chk.Attach(in)
	if _, err := in.RunModule(code); err != nil {
		t.Fatalf("module: %v", err)
	}
	if _, err := in.CallGlobal("run"); err != nil {
		t.Fatalf("run(): %v", err)
	}
	return chk.Violations()
}

func factsOf(t *testing.T, src string) *ModuleFacts {
	t.Helper()
	code, err := minipy.CompileSource(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return InterprocAnalyze(code)
}

func TestCheckerCatchesFalseInterval(t *testing.T) {
	src := "def run():\n    x = 100\n    return x + 1\n"
	facts := factsOf(t, src)
	tampered := false
	for _, run := range facts.Runs {
		for pc, iv := range run.claims {
			if iv.isConst() && iv.lo == 101 {
				run.claims[pc] = ivRange(0, 5) // lie: claim the sum is tiny
				tampered = true
			}
		}
	}
	if !tampered {
		t.Fatal("no constant-101 claim found to tamper with")
	}
	vs := tamperRun(t, src, facts)
	found := false
	for _, v := range vs {
		if v.Kind == "interval" {
			found = true
		}
	}
	if !found {
		t.Fatalf("falsified interval claim not caught; violations: %v", vs)
	}
}

func TestCheckerCatchesFalseEffects(t *testing.T) {
	src := "x = 1\nx = x + 1\n\ndef run():\n    return x\n"
	facts := factsOf(t, src)
	eff := facts.Effects[facts.Module]
	if eff == nil || len(eff.WritesGlobals) == 0 {
		t.Fatal("module effect summary missing expected global writes")
	}
	eff.WritesGlobals = nil // lie: claim the module body writes nothing
	vs := tamperRun(t, src, facts)
	found := false
	for _, v := range vs {
		if v.Kind == "effect-write" {
			found = true
		}
	}
	if !found {
		t.Fatalf("falsified effect summary not caught; violations: %v", vs)
	}
}

func TestCheckerCatchesFalseEscape(t *testing.T) {
	src := "def mk():\n    return [1, 2, 3]\n\ndef run():\n    xs = mk()\n    return xs[0]\n"
	facts := factsOf(t, src)
	var mk *minipy.Code
	for c, run := range facts.Runs {
		if c.Name == "mk" {
			if !run.returnMayFresh {
				t.Fatal("analysis should have found mk() returns a fresh list")
			}
			run.returnMayFresh = false // lie: claim mk never returns fresh objects
			mk = c
		}
	}
	if mk == nil {
		t.Fatal("mk not analyzed")
	}
	vs := tamperRun(t, src, facts)
	found := false
	for _, v := range vs {
		if v.Kind == "escape" {
			found = true
		}
	}
	if !found {
		t.Fatalf("falsified escape claim not caught; violations: %v", vs)
	}
}

// TestHonestCertificateEscape is the positive direction for a function the
// analysis certifies as NOT returning fresh objects: routing an argument
// back out must stay violation-free even though the value is heap-allocated.
func TestHonestCertificateEscape(t *testing.T) {
	src := "def pick(xs):\n    return xs\n\ndef run():\n    a = [1, 2]\n    b = pick(a)\n    return b[0]\n"
	facts := factsOf(t, src)
	for c, run := range facts.Runs {
		if c.Name == "pick" && run.returnMayFresh {
			t.Fatal("pick() only forwards its argument; ReturnsFresh should be false")
		}
	}
	if vs := tamperRun(t, src, facts); len(vs) != 0 {
		t.Fatalf("honest certificate produced violations: %v", vs)
	}
}
