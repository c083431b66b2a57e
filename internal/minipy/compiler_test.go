package minipy

import (
	"strings"
	"testing"
)

func compile(t *testing.T, src string) *Code {
	t.Helper()
	code, err := CompileSource(src)
	if err != nil {
		t.Fatalf("CompileSource: %v", err)
	}
	return code
}

// findFunc digs a nested code object out of the constant pool by name.
func findFunc(t *testing.T, code *Code, name string) *Code {
	t.Helper()
	var walk func(c *Code) *Code
	walk = func(c *Code) *Code {
		for _, k := range c.Consts {
			if sub, ok := k.(*Code); ok {
				if sub.Name == name {
					return sub
				}
				if found := walk(sub); found != nil {
					return found
				}
			}
		}
		return nil
	}
	found := walk(code)
	if found == nil {
		t.Fatalf("function %q not found in %s", name, code.Disassemble())
	}
	return found
}

func countOps(c *Code, op Op) int {
	n := 0
	for _, in := range c.Ops {
		if in.Op == op {
			n++
		}
	}
	return n
}

func TestCompileModuleUsesGlobals(t *testing.T) {
	code := compile(t, "x = 1\ny = x + 1")
	if !code.IsModule {
		t.Fatal("module flag unset")
	}
	if countOps(code, OpStoreGlobal) != 2 || countOps(code, OpLoadGlobal) != 1 {
		t.Fatalf("module name ops wrong:\n%s", code.Disassemble())
	}
	if countOps(code, OpLoadLocal)+countOps(code, OpStoreLocal) != 0 {
		t.Fatal("module code must not use local slots")
	}
}

func TestCompileFunctionLocals(t *testing.T) {
	code := compile(t, "def f(a, b):\n    c = a + b\n    return c")
	f := findFunc(t, code, "f")
	if f.NumParams != 2 {
		t.Fatalf("params %d", f.NumParams)
	}
	if len(f.LocalNames) != 3 {
		t.Fatalf("locals %v", f.LocalNames)
	}
	if countOps(f, OpLoadGlobal) != 0 {
		t.Fatalf("pure-local function should not touch globals:\n%s", f.Disassemble())
	}
}

func TestCompileClosureCells(t *testing.T) {
	src := `
def outer(n):
    def inner(x):
        return x + n
    return inner
`
	code := compile(t, src)
	outer := findFunc(t, code, "outer")
	inner := findFunc(t, code, "inner")
	if len(outer.CellLocals) != 1 {
		t.Fatalf("outer cell locals %v:\n%s", outer.CellLocals, outer.Disassemble())
	}
	if len(inner.FreeNames) != 1 || inner.FreeNames[0] != "n" {
		t.Fatalf("inner free names %v", inner.FreeNames)
	}
	if countOps(outer, OpPushCell) != 1 {
		t.Fatal("outer must push one cell for inner")
	}
	if countOps(inner, OpLoadCell) != 1 {
		t.Fatal("inner must load n from a cell")
	}
}

func TestCompileNonlocalWritesCell(t *testing.T) {
	src := `
def counter():
    n = 0
    def bump():
        nonlocal n
        n = n + 1
        return n
    return bump
`
	code := compile(t, src)
	bump := findFunc(t, code, "bump")
	if countOps(bump, OpStoreCell) != 1 {
		t.Fatalf("nonlocal store must be a cell store:\n%s", bump.Disassemble())
	}
	if countOps(bump, OpStoreLocal) != 0 {
		t.Fatal("nonlocal name must not be a plain local")
	}
}

func TestCompileTwoLevelClosure(t *testing.T) {
	// The middle function only passes the cell through.
	src := `
def a():
    v = 1
    def b():
        def c():
            return v
        return c
    return b
`
	code := compile(t, src)
	bFn := findFunc(t, code, "b")
	cFn := findFunc(t, code, "c")
	if len(bFn.FreeNames) != 1 || bFn.FreeNames[0] != "v" {
		t.Fatalf("b free names %v (should pass v through)", bFn.FreeNames)
	}
	if len(cFn.FreeNames) != 1 || cFn.FreeNames[0] != "v" {
		t.Fatalf("c free names %v", cFn.FreeNames)
	}
	aFn := findFunc(t, code, "a")
	if len(aFn.CellLocals) != 1 {
		t.Fatalf("a cell locals %v", aFn.CellLocals)
	}
}

func TestCompileGlobalDeclaration(t *testing.T) {
	src := `
g = 0
def f():
    global g
    g = 5
`
	code := compile(t, src)
	f := findFunc(t, code, "f")
	if countOps(f, OpStoreGlobal) != 1 {
		t.Fatalf("global store missing:\n%s", f.Disassemble())
	}
	if len(f.LocalNames) != 0 {
		t.Fatalf("g must not be a local: %v", f.LocalNames)
	}
}

func TestCompileConstDedup(t *testing.T) {
	code := compile(t, "a = 7\nb = 7\nc = 7\nd = 'x'\ne = 'x'")
	ints, strs := 0, 0
	for _, k := range code.Consts {
		switch k.(type) {
		case Int:
			ints++
		case Str:
			strs++
		}
	}
	if ints != 1 || strs != 1 {
		t.Fatalf("constants not deduplicated: %v", code.Consts)
	}
}

func TestCompileLoopJumps(t *testing.T) {
	code := compile(t, `
i = 0
while i < 10:
    i += 1
    if i == 3:
        continue
    if i == 5:
        break
`)
	// All jump targets must be in range.
	for pc, in := range code.Ops {
		switch in.Op {
		case OpJump, OpJumpIfFalse, OpJumpIfTrue, OpJumpIfFalseKeep,
			OpJumpIfTrueKeep, OpForIter:
			if in.Arg < 0 || int(in.Arg) > len(code.Ops) {
				t.Fatalf("pc %d: jump target %d out of range", pc, in.Arg)
			}
		}
	}
}

func TestCompileForLoopShape(t *testing.T) {
	code := compile(t, "for i in range(3):\n    x = i")
	if countOps(code, OpGetIter) != 1 || countOps(code, OpForIter) != 1 {
		t.Fatalf("for-loop ops wrong:\n%s", code.Disassemble())
	}
}

func TestCompileBreakInForPopsIterator(t *testing.T) {
	code := compile(t, "for i in range(3):\n    break")
	// The break must pop the iterator before jumping.
	foundPopBeforeJump := false
	for pc := 0; pc+1 < len(code.Ops); pc++ {
		if code.Ops[pc].Op == OpPop && code.Ops[pc+1].Op == OpJump {
			foundPopBeforeJump = true
		}
	}
	if !foundPopBeforeJump {
		t.Fatalf("break in for must emit POP before JUMP:\n%s", code.Disassemble())
	}
}

func TestCompileReturnInForVerifies(t *testing.T) {
	for _, src := range []string{
		"def f(xs):\n    for x in xs:\n        return x\n    return 0\n",
		"def f(xs):\n    for x in xs:\n        return\n",
		"def f(xs):\n    while True:\n        for x in xs:\n            for y in xs:\n                return y\n",
	} {
		code, err := CompileSource(src)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		if err := Verify(code); err != nil {
			t.Errorf("return inside for loops must leave the stack balanced: %v\n%s",
				err, code.Consts[0].(*Code).Disassemble())
		}
	}
}

func TestCompileClassShape(t *testing.T) {
	code := compile(t, `
class A:
    K = 3
    def m(self):
        return self
`)
	if countOps(code, OpBuildClass) != 1 {
		t.Fatalf("class op missing:\n%s", code.Disassemble())
	}
	for _, in := range code.Ops {
		if in.Op == OpBuildClass && in.Arg != 2 {
			t.Fatalf("BUILD_CLASS arg = %d, want 2 (one const + one method)", in.Arg)
		}
	}
}

func TestCompileErrorsReportLines(t *testing.T) {
	_, err := CompileSource("x = 1\nbreak")
	ce, ok := err.(*CompileError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if ce.Line != 2 {
		t.Fatalf("error line %d, want 2", ce.Line)
	}
	if !strings.Contains(ce.Error(), "break") {
		t.Fatalf("error message %q", ce.Error())
	}
}

func TestCompileBreakContinueOutsideLoop(t *testing.T) {
	for _, src := range []string{"break", "continue", "def f():\n    break"} {
		if _, err := CompileSource(src); err == nil {
			t.Errorf("CompileSource(%q): expected error", src)
		}
	}
}

func TestCompileDisassembleCoversNestedFunctions(t *testing.T) {
	code := compile(t, "def f():\n    def g():\n        return 1\n    return g")
	dis := code.Disassemble()
	for _, want := range []string{"code <module>", "code f", "code g", "MAKE_FUNCTION"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q:\n%s", want, dis)
		}
	}
}

func TestCompileAugAssignTargets(t *testing.T) {
	code := compile(t, `
def f(xs, obj):
    xs[0] += 1
    obj.a += 2
    local = 0
    local += 3
    return local
`)
	f := findFunc(t, code, "f")
	if countOps(f, OpDup2) != 1 {
		t.Fatalf("index aug-assign must DUP2:\n%s", f.Disassemble())
	}
	if countOps(f, OpDup) != 1 {
		t.Fatalf("attr aug-assign must DUP:\n%s", f.Disassemble())
	}
}

func TestCompileLinesArrayMatchesOps(t *testing.T) {
	code := compile(t, "x = 1\ny = 2\n\nz = x + y")
	if len(code.Lines) != len(code.Ops) {
		t.Fatalf("lines %d ops %d", len(code.Lines), len(code.Ops))
	}
}
