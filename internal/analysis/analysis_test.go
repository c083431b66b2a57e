package analysis

import (
	"strings"
	"testing"

	"repro/internal/minipy"
)

// analyzeSrc compiles and analyzes a source fixture.
func analyzeSrc(t *testing.T, src string) *Report {
	t.Helper()
	rep, err := Analyze(compile(t, src))
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return rep
}

// wantDiag asserts the report contains a diagnostic with the given rule and
// severity whose message mentions frag, positioned at the given source line.
func wantDiag(t *testing.T, rep *Report, rule string, sev Severity, line int, frag string) {
	t.Helper()
	for _, d := range rep.Diagnostics {
		if d.Rule == rule && d.Severity == sev && strings.Contains(d.Msg, frag) {
			if line != 0 && d.Line != line {
				t.Errorf("%s diagnostic at line %d, want line %d: %s", rule, d.Line, line, d)
			}
			return
		}
	}
	t.Errorf("no %s/%s diagnostic mentioning %q; got:", rule, sev, frag)
	for _, d := range rep.Diagnostics {
		t.Errorf("  %s", d)
	}
}

func TestUseBeforeDefRejected(t *testing.T) {
	rep := analyzeSrc(t, `
def f():
    y = x + 1
    x = 2
    return y

def run():
    return f()
`)
	wantDiag(t, rep, "use-before-def", ErrorSev, 3, `"x"`)
	if len(rep.Errors()) == 0 {
		t.Fatal("expected error-severity findings")
	}
	// Check() must reject with a positioned error.
	err := Check(compile(t, "def f():\n    return q + 1\n    q = 0\n"))
	aerr, ok := err.(*Error)
	if !ok {
		t.Fatalf("Check returned %T (%v), want *analysis.Error", err, err)
	}
	if aerr.Rule != "use-before-def" || aerr.Line != 2 {
		t.Errorf("Check error = %v, want use-before-def at line 2", aerr)
	}
}

func TestPossiblyUnassignedWarns(t *testing.T) {
	rep := analyzeSrc(t, `
def f(flag):
    if flag:
        x = 1
    return x
`)
	wantDiag(t, rep, "possibly-unassigned", Warning, 5, `"x"`)
	if len(rep.Errors()) != 0 {
		t.Errorf("one-armed assignment must warn, not error: %v", rep.Errors())
	}
}

func TestDefiniteAssignmentJoin(t *testing.T) {
	// Assigned on both arms: no finding at all.
	rep := analyzeSrc(t, `
def f(flag):
    if flag:
        x = 1
    else:
        x = 2
    return x
`)
	for _, d := range rep.Diagnostics {
		if d.Rule == "use-before-def" || d.Rule == "possibly-unassigned" {
			t.Errorf("unexpected finding: %s", d)
		}
	}
}

func TestLoopVariableAssignment(t *testing.T) {
	// A for-loop variable is assigned by the loop protocol; reading it
	// inside the body is fine, and after the loop it is only
	// possibly-assigned (zero-iteration loops skip the store).
	rep := analyzeSrc(t, `
def f(n):
    for i in range(n):
        use = i
    return i
`)
	wantDiag(t, rep, "possibly-unassigned", Warning, 0, `"i"`)
	if len(rep.Errors()) != 0 {
		t.Errorf("unexpected errors: %v", rep.Errors())
	}
}

func TestCertainTypeErrors(t *testing.T) {
	for _, tc := range CertainTypeErrors {
		t.Run(tc.Name, func(t *testing.T) {
			rep := analyzeSrc(t, tc.Src)
			wantDiag(t, rep, "type-error", ErrorSev, tc.Line, tc.Frag)
		})
	}
}

func TestTypeInferenceSilentOnValidPrograms(t *testing.T) {
	if errs := analyzeSrc(t, SilentValid.Src).Errors(); len(errs) != 0 {
		t.Errorf("valid program flagged: %v", errs)
	}
}

func TestGlobalMutationDemotesType(t *testing.T) {
	if errs := analyzeSrc(t, GlobalMutation.Src).Errors(); len(errs) != 0 {
		t.Errorf("demoted global wrongly flagged: %v", errs)
	}
}

func TestModuleTypedGlobalFlagged(t *testing.T) {
	p := ModuleTypedGlobal
	wantDiag(t, analyzeSrc(t, p.Src), "type-error", ErrorSev, p.Line, p.Frag)
}

func TestDeadStoreDetected(t *testing.T) {
	rep := analyzeSrc(t, `
def f():
    x = 41
    x = 1
    return x
`)
	wantDiag(t, rep, "dead-store", Warning, 3, `"x"`)
}

func TestUnusedLoopVarIsInfo(t *testing.T) {
	rep := analyzeSrc(t, `
def f(n):
    total = 0
    for it in range(n):
        total = total + 1
    return total
`)
	wantDiag(t, rep, "unused-loop-var", Info, 4, `"it"`)
	if len(rep.Errors()) != 0 || len(rep.Warnings()) != 0 {
		t.Errorf("unused loop var must be info-only; errors=%v warnings=%v",
			rep.Errors(), rep.Warnings())
	}
}

func TestUnreachableCodeWarned(t *testing.T) {
	rep := analyzeSrc(t, `
def f():
    return 1
    x = 2
    return x
`)
	wantDiag(t, rep, "unreachable-code", Warning, 0, "unreachable")
}

func TestEpilogueNotFlaggedUnreachable(t *testing.T) {
	// All paths return explicitly: only the compiler's implicit epilogue is
	// unreachable, and it must not be reported.
	rep := analyzeSrc(t, `
def f(x):
    if x:
        return 1
    else:
        return 2
`)
	for _, d := range rep.Diagnostics {
		if d.Rule == "unreachable-code" {
			t.Errorf("implicit epilogue flagged: %s", d)
		}
	}
	for _, f := range rep.Funcs {
		if f.Name == "f" && f.Unreachable != 0 {
			t.Errorf("epilogue counted as unreachable: %d instrs", f.Unreachable)
		}
	}
}

func TestDeterminismCertificate(t *testing.T) {
	rep := analyzeSrc(t, `
def run():
    return sqrt(2.0) + len([1, 2])
`)
	cert := rep.Certificate.Determinism
	if !cert.Certified {
		t.Fatalf("pure workload not certified: %+v", cert)
	}
	if cert.UsesIO {
		t.Error("no print call but UsesIO set")
	}
	want := []string{"len", "sqrt"}
	if len(cert.Builtins) != 2 || cert.Builtins[0] != want[0] || cert.Builtins[1] != want[1] {
		t.Errorf("builtins = %v, want %v", cert.Builtins, want)
	}

	rep = analyzeSrc(t, `
def run():
    print("hi")
    return 0
`)
	if !rep.Certificate.Determinism.Certified || !rep.Certificate.Determinism.UsesIO {
		t.Errorf("print: want certified with UsesIO, got %+v", rep.Certificate)
	}

	rep = analyzeSrc(t, UnresolvedGlobal.Src)
	cert = rep.Certificate.Determinism
	if cert.Certified {
		t.Error("unresolved global must void certification")
	}
	if len(cert.UnresolvedGlobals) != 1 || cert.UnresolvedGlobals[0] != "mystery_global" {
		t.Errorf("unresolved = %v", cert.UnresolvedGlobals)
	}
	wantDiag(t, rep, "unresolved-global", Warning, 0, UnresolvedGlobal.Frag)
}

func TestSummaryShape(t *testing.T) {
	rep := analyzeSrc(t, `
def run():
    total = 0
    for i in range(10):
        total = total + i
    return total
`)
	s := rep.Summarize()
	if s.Functions != 2 { // module + run
		t.Errorf("functions = %d, want 2", s.Functions)
	}
	if s.Blocks == 0 || s.Instructions == 0 {
		t.Errorf("empty summary: %+v", s)
	}
	if s.TypedInstrPct <= 0 || s.TypedInstrPct > 100 {
		t.Errorf("typed pct out of range: %v", s.TypedInstrPct)
	}
	if !s.Certificate.Determinism.Certified {
		t.Errorf("expected certification: %+v", s.Certificate.Determinism)
	}
}

func TestClosuresStayConservative(t *testing.T) {
	// A closure rebinds the cell after capture; the analyzer must not trust
	// the pre-call cell type (false positive) nor flag the unassigned-then-
	// callback-assigned pattern as a certain error.
	rep := analyzeSrc(t, `
def outer():
    x = "s"
    def fix():
        nonlocal x
        x = 1
    fix()
    return x + 1

def run():
    return outer()
`)
	if errs := rep.Errors(); len(errs) != 0 {
		t.Errorf("closure retyping wrongly flagged: %v", errs)
	}
}

func TestAnalyzeRejectsUnverifiedCode(t *testing.T) {
	bad := &minipy.Code{Name: "bad", Ops: []minipy.Instr{{Op: minipy.OpReturn}}}
	if _, err := Analyze(bad); err == nil {
		t.Error("stack-underflowing code must fail verification inside Analyze")
	}
}
