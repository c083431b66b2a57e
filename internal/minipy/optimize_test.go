package minipy

import (
	"strings"
	"testing"
)

// mustOptimize compiles, verifies, and optimizes src, failing the test on
// any front-end or verification error.
func mustOptimize(t *testing.T, src string, level int, facts *OptFacts) (*Code, *Code) {
	t.Helper()
	base, err := CompileSource(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if err := Verify(base); err != nil {
		t.Fatalf("verify base: %v", err)
	}
	opt, err := Optimize(base, level, facts)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	return base, opt
}

// funcCode finds the nested code object with the given name.
func funcCode(t *testing.T, root *Code, name string) *Code {
	t.Helper()
	var find func(c *Code) *Code
	find = func(c *Code) *Code {
		if c.Name == name {
			return c
		}
		for _, k := range c.Consts {
			if sub, ok := k.(*Code); ok {
				if f := find(sub); f != nil {
					return f
				}
			}
		}
		return nil
	}
	f := find(root)
	if f == nil {
		t.Fatalf("no code object %q", name)
	}
	return f
}

func countOp(c *Code, op Op) int {
	n := 0
	for _, ins := range c.Ops {
		if ins.Op == op {
			n++
		}
	}
	return n
}

func TestOptimizeLevelZeroIsIdentity(t *testing.T) {
	base, opt := mustOptimize(t, "def f(x):\n    return x + 1\n", 0, nil)
	if opt != base {
		t.Fatalf("level 0 must return the input code object unchanged")
	}
}

func TestOptimizeRefusesLevelAboveMax(t *testing.T) {
	base, err := CompileSource("def f(x):\n    return x + 1\n")
	if err != nil {
		t.Fatal(err)
	}
	if opt, err := Optimize(base, MaxOptLevel+1, nil); err == nil || opt != nil {
		t.Fatalf("level %d: got %v, %v; want an error", MaxOptLevel+1, opt, err)
	}
}

func TestOptimizeNeverMutatesInput(t *testing.T) {
	src := "def f(x):\n    if x < 2:\n        return x\n    return f(x - 1) + f(x - 2)\n"
	base, err := CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(base); err != nil {
		t.Fatal(err)
	}
	before := funcCode(t, base, "f").Disassemble()
	if _, err := Optimize(base, 2, nil); err != nil {
		t.Fatal(err)
	}
	if after := funcCode(t, base, "f").Disassemble(); after != before {
		t.Fatalf("Optimize mutated its input:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

func TestConstantFolding(t *testing.T) {
	// 2*3+4 folds to 10 in two rounds (inner product first, then the sum).
	_, opt := mustOptimize(t, "def f():\n    return 2 * 3 + 4\n", 1, nil)
	f := funcCode(t, opt, "f")
	if n := countOp(f, OpBinary); n != 0 {
		t.Fatalf("BINARY survived folding:\n%s", f.Disassemble())
	}
	found := false
	for _, k := range f.Consts {
		if iv, ok := k.(Int); ok && iv == 10 {
			found = true
		}
	}
	if !found {
		t.Fatalf("folded constant 10 missing:\n%s", f.Disassemble())
	}
}

func TestFoldingMatchesRuntimeSemantics(t *testing.T) {
	// Negative floor division and modulo round toward negative infinity in
	// Python; folding must agree with FloorDivInt/PyModInt exactly.
	cases := []struct {
		op   BinOpCode
		x, y int64
		want int64
	}{
		{BinFloorDiv, -7, 2, -4},
		{BinFloorDiv, 7, -2, -4},
		{BinMod, -7, 2, 1},
		{BinMod, 7, -2, -1},
	}
	for _, c := range cases {
		v, ok := foldIntBinary(c.op, c.x, c.y)
		if !ok {
			t.Fatalf("fold %v(%d, %d) refused", c.op, c.x, c.y)
		}
		if got := int64(v.(Int)); got != c.want {
			t.Errorf("fold %v(%d, %d) = %d, want %d", c.op, c.x, c.y, got, c.want)
		}
	}
}

func TestFoldingSkipsZeroDivisorAndPow(t *testing.T) {
	if _, ok := foldIntBinary(BinFloorDiv, 1, 0); ok {
		t.Error("folded division by zero")
	}
	if _, ok := foldIntBinary(BinMod, 1, 0); ok {
		t.Error("folded modulo by zero")
	}
	if _, ok := foldIntBinary(BinPow, 2, 10); ok {
		t.Error("folded power (overflow semantics differ)")
	}
	// 1 // 0 must still raise at runtime, so the ops must survive.
	_, opt := mustOptimize(t, "def f():\n    return 1 // 0\n", 2, nil)
	if n := countOp(funcCode(t, opt, "f"), OpBinary); n != 1 {
		t.Fatalf("division by zero was folded away:\n%s", funcCode(t, opt, "f").Disassemble())
	}
}

func TestDeadStoreElimination(t *testing.T) {
	src := "def f(x):\n    y = x + 1\n    y = x + 2\n    return y\n"
	base, err := CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(base); err != nil {
		t.Fatal(err)
	}
	f := funcCode(t, base, "f")
	// The first store to y (its earliest STORE_LOCAL) is dead.
	deadPC := -1
	for pc, ins := range f.Ops {
		if ins.Op == OpStoreLocal && f.LocalNames[ins.Arg] == "y" {
			deadPC = pc
			break
		}
	}
	if deadPC < 0 {
		t.Fatalf("no store to y:\n%s", f.Disassemble())
	}
	facts := &OptFacts{DeadStores: map[*Code]map[int]bool{f: {deadPC: true}}}
	opt, err := Optimize(base, 1, facts)
	if err != nil {
		t.Fatal(err)
	}
	of := funcCode(t, opt, "f")
	if got := countOp(of, OpStoreLocal); got != 1 {
		t.Fatalf("want 1 surviving store, got %d:\n%s", got, of.Disassemble())
	}
}

func TestJumpThreading(t *testing.T) {
	c := &Code{
		Name:   "t",
		Consts: []Value{Bool(true), Int(1)},
		Ops: []Instr{
			{Op: OpLoadConst, Arg: 0},
			{Op: OpJumpIfFalse, Arg: 3}, // -> JUMP chain, should retarget to 4
			{Op: OpJump, Arg: 4},
			{Op: OpJump, Arg: 4},
			{Op: OpLoadConst, Arg: 1},
			{Op: OpReturn},
		},
		Lines: []int32{1, 1, 1, 1, 1, 1},
	}
	if err := Verify(c); err != nil {
		t.Fatal(err)
	}
	opt, err := Optimize(c, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ins := range opt.Ops {
		if ins.Op == OpJumpIfFalse {
			if opt.Ops[ins.Arg].Op == OpJump {
				t.Fatalf("conditional jump still lands on a JUMP:\n%s", opt.Disassemble())
			}
			return
		}
	}
	t.Fatalf("conditional jump disappeared:\n%s", opt.Disassemble())
}

func TestJumpThreadingSurvivesJumpCycle(t *testing.T) {
	// A JUMP targeting itself (degenerate infinite loop) must not hang the
	// optimizer.
	c := &Code{
		Name:   "loop",
		Consts: []Value{None},
		Ops: []Instr{
			{Op: OpJump, Arg: 0},
			{Op: OpLoadConst, Arg: 0},
			{Op: OpReturn},
		},
		Lines: []int32{1, 1, 1},
	}
	if err := Verify(c); err != nil {
		t.Fatal(err)
	}
	if _, err := Optimize(c, 1, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSuperinstructionFusion(t *testing.T) {
	src := "def f(a, b):\n    while a < b:\n        a = a + 1\n    return a\n"
	_, opt := mustOptimize(t, src, 2, nil)
	f := funcCode(t, opt, "f")
	dis := f.Disassemble()
	if countOp(f, OpLoadLocalPair) == 0 {
		t.Errorf("no LOAD_LOCAL_PAIR emitted:\n%s", dis)
	}
	if countOp(f, OpLoadLocalConst) == 0 {
		t.Errorf("no LOAD_LOCAL_CONST emitted:\n%s", dis)
	}
	if countOp(f, OpBinaryJumpIfFalse) == 0 {
		t.Errorf("no BINARY_JUMP_IF_FALSE emitted:\n%s", dis)
	}
}

func TestFusionOnlyAtLevelTwo(t *testing.T) {
	src := "def f(a, b):\n    return a + b\n"
	_, opt := mustOptimize(t, src, 1, nil)
	f := funcCode(t, opt, "f")
	if countOp(f, OpLoadLocalPair) != 0 {
		t.Fatalf("level 1 must not fuse:\n%s", f.Disassemble())
	}
}

func TestFusionSkipsJumpTargets(t *testing.T) {
	// In `while True: x = x + 1` shapes the loop head is a jump target; a
	// fused pair must never swallow an instruction control can land on.
	src := "def f(n):\n    i = 0\n    s = 0\n    while i < n:\n        s = s + i\n        i = i + 1\n    return s\n"
	_, opt := mustOptimize(t, src, 2, nil)
	f := funcCode(t, opt, "f")
	// Structural soundness is the real check: Verify rejects an inconsistent
	// join, which is exactly what fusing across a jump target produces (the
	// jump would land mid-pair on a pc that no longer exists).
	if err := Verify(opt); err != nil {
		t.Fatalf("fused code fails verification: %v\n%s", err, f.Disassemble())
	}
}

func TestOptimizedCodeVerifies(t *testing.T) {
	srcs := []string{
		"def f(x):\n    if x < 2:\n        return x\n    return f(x - 1) + f(x - 2)\n",
		"def g(n):\n    total = 0\n    for i in range(n):\n        total = total + i * 2 - 1\n    return total\n",
		"def h(s):\n    out = []\n    for c in s:\n        out.append(c)\n    return len(out)\n",
	}
	for _, src := range srcs {
		for _, level := range []int{1, 2} {
			_, opt := mustOptimize(t, src, level, nil)
			if err := Verify(opt); err != nil {
				t.Errorf("level %d: %v", level, err)
			}
		}
	}
}

func TestFusedOpsDisassemble(t *testing.T) {
	_, opt := mustOptimize(t, "def f(a, b):\n    return a + b\n", 2, nil)
	dis := funcCode(t, opt, "f").Disassemble()
	if !strings.Contains(dis, "LOAD_LOCAL_PAIR") || !strings.Contains(dis, "a, b") {
		t.Fatalf("fused op missing operand detail:\n%s", dis)
	}
}

func TestIntHelpersMatchPython(t *testing.T) {
	// Golden values from CPython: a // b and a % b across sign combinations.
	cases := []struct{ a, b, div, mod int64 }{
		{7, 2, 3, 1},
		{-7, 2, -4, 1},
		{7, -2, -4, -1},
		{-7, -2, 3, -1},
		{6, 3, 2, 0},
		{-6, 3, -2, 0},
	}
	for _, c := range cases {
		if got := FloorDivInt(c.a, c.b); got != c.div {
			t.Errorf("FloorDivInt(%d, %d) = %d, want %d", c.a, c.b, got, c.div)
		}
		if got := PyModInt(c.a, c.b); got != c.mod {
			t.Errorf("PyModInt(%d, %d) = %d, want %d", c.a, c.b, got, c.mod)
		}
	}
}
