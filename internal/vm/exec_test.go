package vm

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/minipy"
)

// runSrc executes source on a fresh interpreter and returns printed output.
func runSrc(t *testing.T, src string) string {
	t.Helper()
	var buf bytes.Buffer
	in := New(Config{Out: &buf})
	if _, err := in.RunSource(src); err != nil {
		t.Fatalf("RunSource: %v", err)
	}
	return buf.String()
}

// runSrcBoth executes source under both engines and asserts identical output.
func runSrcBoth(t *testing.T, src string) string {
	t.Helper()
	out := runSrc(t, src)
	var buf bytes.Buffer
	in := New(Config{Mode: ModeJIT, Out: &buf})
	if _, err := in.RunSource(src); err != nil {
		t.Fatalf("RunSource(jit): %v", err)
	}
	if buf.String() != out {
		t.Fatalf("engines disagree:\ninterp: %q\njit:    %q", out, buf.String())
	}
	return out
}

func wantOut(t *testing.T, src, want string) {
	t.Helper()
	got := runSrcBoth(t, src)
	if got != want {
		t.Fatalf("output mismatch:\n got: %q\nwant: %q", got, want)
	}
}

func TestArithmetic(t *testing.T) {
	wantOut(t, "print(1 + 2 * 3)", "7\n")
	wantOut(t, "print(7 // 2, 7 % 2, -7 // 2, -7 % 2)", "3 1 -4 1\n")
	wantOut(t, "print(7 / 2)", "3.5\n")
	wantOut(t, "print(2 ** 10)", "1024\n")
	wantOut(t, "print(2 ** -1)", "0.5\n")
	wantOut(t, "print(1.5 + 2)", "3.5\n")
	wantOut(t, "print(-3 * -4)", "12\n")
	wantOut(t, "print(10 % 3, -10 % 3, 10 % -3)", "1 2 -2\n")
	wantOut(t, "print(1e3)", "1000.0\n")
}

func TestComparisonsAndBool(t *testing.T) {
	wantOut(t, "print(1 < 2, 2 <= 2, 3 > 4, 4 >= 4, 1 == 1.0, 1 != 2)",
		"True True False True True True\n")
	wantOut(t, "print(True and False, True or False, not True)", "False True False\n")
	wantOut(t, "print(0 or 'x', 1 and 'y')", "x y\n")
	wantOut(t, "print('abc' < 'abd', 'abc' == 'abc')", "True True\n")
	wantOut(t, "print(1 if 2 > 1 else 0)", "1\n")
}

func TestStrings(t *testing.T) {
	wantOut(t, "print('a' + 'b', 'ab' * 3)", "ab ababab\n")
	wantOut(t, "print(len('hello'), 'hello'[1], 'hello'[-1], 'hello'[1:3])", "5 e o el\n")
	wantOut(t, "print('a,b,c'.split(','))", "['a', 'b', 'c']\n")
	wantOut(t, "print('-'.join(['x', 'y', 'z']))", "x-y-z\n")
	wantOut(t, "print('Hello'.upper(), 'Hello'.lower())", "HELLO hello\n")
	wantOut(t, "print('hello'.replace('l', 'L'))", "heLLo\n")
	wantOut(t, "print('ell' in 'hello', 'z' in 'hello')", "True False\n")
	wantOut(t, "print(str(42) + '!')", "42!\n")
	wantOut(t, "print(chr(65), ord('A'))", "A 65\n")
}

func TestListsAndTuples(t *testing.T) {
	wantOut(t, "x = [1, 2, 3]\nx.append(4)\nprint(x, len(x))", "[1, 2, 3, 4] 4\n")
	wantOut(t, "x = [1, 2, 3]\nprint(x[0], x[-1], x[1:])", "1 3 [2, 3]\n")
	wantOut(t, "x = [3, 1, 2]\nx.sort()\nprint(x)", "[1, 2, 3]\n")
	wantOut(t, "print([1, 2] + [3], [0] * 3)", "[1, 2, 3] [0, 0, 0]\n")
	wantOut(t, "t = (1, 'a')\nprint(t[0], t[1], len(t))", "1 a 2\n")
	wantOut(t, "a, b = 1, 2\na, b = b, a\nprint(a, b)", "2 1\n")
	wantOut(t, "x = [1, 2, 3]\nx[1] = 9\nprint(x)", "[1, 9, 3]\n")
	wantOut(t, "print(2 in [1, 2], 5 in [1, 2])", "True False\n")
	wantOut(t, "print(sorted([3, 1, 2]))", "[1, 2, 3]\n")
	wantOut(t, "x = [1, 2, 3, 4]\nx.pop()\nprint(x.pop(0), x)", "1 [2, 3]\n")
	wantOut(t, "print(list(range(3)), tuple([1, 2]))", "[0, 1, 2] (1, 2)\n")
	wantOut(t, "print(sum([1, 2, 3]), min([3, 1, 2]), max(4, 7, 2))", "6 1 7\n")
}

func TestDicts(t *testing.T) {
	wantOut(t, "d = {'a': 1, 'b': 2}\nprint(d['a'], len(d))", "1 2\n")
	wantOut(t, "d = {}\nd['k'] = 5\nd['k'] = 6\nprint(d, 'k' in d, 'z' in d)", "{'k': 6} True False\n")
	wantOut(t, "d = {1: 'x'}\nprint(d.get(1), d.get(2), d.get(2, 'dflt'))", "x None dflt\n")
	wantOut(t, "d = {'a': 1, 'b': 2}\ndel d['a']\nprint(d, len(d))", "{'b': 2} 1\n")
	wantOut(t, "d = {'a': 1, 'b': 2}\nprint(d.keys(), d.values())", "['a', 'b'] [1, 2]\n")
	wantOut(t, "d = {'x': 10}\nfor k in d:\n    print(k, d[k])", "x 10\n")
	wantOut(t, `
d = {}
d[1] = 'int'
d[1.0] = 'float'
print(d[1], len(d))
`, "float 1\n")
}

func TestControlFlow(t *testing.T) {
	wantOut(t, `
total = 0
for i in range(5):
    total += i
print(total)
`, "10\n")
	wantOut(t, `
i = 0
while i < 10:
    i += 1
    if i == 3:
        continue
    if i == 6:
        break
print(i)
`, "6\n")
	wantOut(t, `
for i in range(10, 0, -2):
    print(i)
`, "10\n8\n6\n4\n2\n")
	wantOut(t, `
x = 7
if x > 10:
    print('big')
elif x > 5:
    print('mid')
else:
    print('small')
`, "mid\n")
	wantOut(t, `
for a, b in [(1, 2), (3, 4)]:
    print(a + b)
`, "3\n7\n")
}

func TestFunctionsAndRecursion(t *testing.T) {
	wantOut(t, `
def fib(n):
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)
print(fib(10))
`, "55\n")
	wantOut(t, `
def add(a, b):
    return a + b
print(add(2, 3))
`, "5\n")
	wantOut(t, `
def outer():
    count = 0
    def inc():
        nonlocal count
        count += 1
        return count
    inc()
    inc()
    return inc()
print(outer())
`, "3\n")
	wantOut(t, `
def make_adder(n):
    def adder(x):
        return x + n
    return adder
add5 = make_adder(5)
add7 = make_adder(7)
print(add5(10), add7(10))
`, "15 17\n")
	wantOut(t, `
x = 1
def set_x():
    global x
    x = 42
set_x()
print(x)
`, "42\n")
}

func TestClasses(t *testing.T) {
	wantOut(t, `
class Point:
    def __init__(self, x, y):
        self.x = x
        self.y = y
    def dist2(self):
        return self.x * self.x + self.y * self.y
p = Point(3, 4)
print(p.x, p.y, p.dist2())
`, "3 4 25\n")
	wantOut(t, `
class Animal:
    def speak(self):
        return 'generic'
    def greet(self):
        return 'I say ' + self.speak()
class Dog(Animal):
    def speak(self):
        return 'woof'
d = Dog()
a = Animal()
print(a.greet(), d.greet())
print(isinstance(d, Animal), isinstance(a, Dog))
`, "I say generic I say woof\nTrue False\n")
	wantOut(t, `
class Counter:
    LIMIT = 3
    def __init__(self):
        self.n = 0
    def bump(self):
        self.n += 1
        return self.n < Counter.LIMIT
c = Counter()
while c.bump():
    pass
print(c.n)
`, "3\n")
}

func TestBuiltins(t *testing.T) {
	wantOut(t, "print(abs(-5), abs(2.5))", "5 2.5\n")
	wantOut(t, "print(floor(2.7), ceil(2.1))", "2 3\n")
	wantOut(t, "print(int(3.9), int('42'), float('2.5'))", "3 42 2.5\n")
	wantOut(t, "print(pow(2, 8))", "256\n")
	wantOut(t, "print(sqrt(16.0))", "4.0\n")
	wantOut(t, "print(type_name(1), type_name('x'), type_name([]))", "int str list\n")
	wantOut(t, "print(bool(0), bool([]), bool('a'))", "False False True\n")
}

func TestErrors(t *testing.T) {
	cases := []struct {
		src  string
		kind string
	}{
		{"print(1 / 0)", "ZeroDivisionError"},
		{"x = [1]\nprint(x[5])", "IndexError"},
		{"d = {}\nprint(d['missing'])", "KeyError"},
		{"print(undefined_name)", "NameError"},
		{"print('a' + 1)", "TypeError"},
		{"x = {}\nx[[1]] = 2", "TypeError"},
		{"def f():\n    return x_local\n    x_local = 1\nf()", "NameError"},
		{"def f(a):\n    return a\nf(1, 2)", "TypeError"},
	}
	for _, c := range cases {
		in := New(Config{})
		_, err := in.RunSource(c.src)
		if err == nil {
			t.Errorf("src %q: expected %s, got nil", c.src, c.kind)
			continue
		}
		re, ok := err.(*RuntimeError)
		if !ok {
			t.Errorf("src %q: expected RuntimeError, got %T: %v", c.src, err, err)
			continue
		}
		if re.Kind != c.kind {
			t.Errorf("src %q: expected %s, got %s (%v)", c.src, c.kind, re.Kind, err)
		}
	}
}

// TestMalformedCodeIsAnError runs hand-built code objects the compiler
// never emits: a module whose only op is RETURN, one that POPs an empty
// stack, one with no ops, and a function whose body POPs an empty stack,
// reached through CallGlobal and through a call inside a frame. None of
// them can be lowered, and each must come back to the caller as an error
// naming the code object on both engines, never as a panic. The rows
// Verify accepts have operands of the wrong type: a FOR_ITER over None, a
// closure over an int instead of a cell, and a class or method named by an
// int. Each must raise a TypeError.
func TestMalformedCodeIsAnError(t *testing.T) {
	module := func(name string, consts []minipy.Value, ops ...minipy.Instr) *minipy.Code {
		return &minipy.Code{Name: name, IsModule: true, Consts: consts, Names: []string{"bad_fn"},
			Ops: ops, Lines: make([]int32, len(ops))}
	}
	none := []minipy.Value{minipy.None}
	badFn := &minipy.Code{Name: "bad_fn", Ops: []minipy.Instr{{Op: minipy.OpPop}}, Lines: []int32{1}}
	defineBad := []minipy.Instr{
		{Op: minipy.OpMakeFunction, Arg: 0},
		{Op: minipy.OpStoreGlobal, Arg: 0},
	}
	fnConsts := []minipy.Value{badFn, minipy.None}
	closure := &minipy.Code{Name: "closure", FreeNames: []string{"x"}, Consts: none,
		Ops: []minipy.Instr{{Op: minipy.OpLoadConst}, {Op: minipy.OpReturn}}, Lines: []int32{1, 1}}
	intConsts := []minipy.Value{minipy.None, minipy.IntValue(1), minipy.Str("C"), closure}
	run := func(mode Mode, code *minipy.Code) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		_, err = New(Config{Mode: mode}).RunModule(code)
		return err
	}
	for _, mode := range []Mode{ModeInterp, ModeJIT} {
		for _, c := range []struct {
			code *minipy.Code
			want string
		}{
			{module("for_iter_none", none, minipy.Instr{Op: minipy.OpLoadConst},
				minipy.Instr{Op: minipy.OpForIter, Arg: 4}, minipy.Instr{Op: minipy.OpPop},
				minipy.Instr{Op: minipy.OpJump, Arg: 1}, minipy.Instr{Op: minipy.OpLoadConst},
				minipy.Instr{Op: minipy.OpReturn}), "TypeError: 'NoneType' object is not an iterator"},
			{module("closure_over_int", intConsts, minipy.Instr{Op: minipy.OpLoadConst, Arg: 1},
				minipy.Instr{Op: minipy.OpMakeFunction, Arg: 3}, minipy.Instr{Op: minipy.OpReturn}),
				"TypeError: free variable \"x\" of closure is 'int', not a cell"},
			{module("class_named_by_int", intConsts, minipy.Instr{Op: minipy.OpLoadConst, Arg: 1},
				minipy.Instr{Op: minipy.OpLoadConst}, minipy.Instr{Op: minipy.OpBuildClass},
				minipy.Instr{Op: minipy.OpReturn}), "TypeError: class name must be a str, not 'int'"},
			{module("method_named_by_int", intConsts, minipy.Instr{Op: minipy.OpLoadConst, Arg: 2},
				minipy.Instr{Op: minipy.OpLoadConst}, minipy.Instr{Op: minipy.OpLoadConst, Arg: 1},
				minipy.Instr{Op: minipy.OpLoadConst}, minipy.Instr{Op: minipy.OpBuildClass, Arg: 1},
				minipy.Instr{Op: minipy.OpReturn}), "TypeError: method name must be a str, not 'int'"},
		} {
			if err := minipy.Verify(c.code); err != nil {
				t.Fatalf("Verify(%s) = %v, want it accepted", c.code.Name, err)
			}
			if err := run(mode, c.code); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: RunModule(%s) = %v, want %s", mode, c.code.Name, err, c.want)
			}
		}
		for _, c := range []struct {
			code *minipy.Code
			want string
		}{
			{module("return_only", none, minipy.Instr{Op: minipy.OpReturn}), "return_only"},
			{module("pop_empty", none, minipy.Instr{Op: minipy.OpPop},
				minipy.Instr{Op: minipy.OpLoadConst}, minipy.Instr{Op: minipy.OpReturn}), "pop_empty"},
			{module("no_ops", none), "no_ops"},
			{module("bad_make_function", none, minipy.Instr{Op: minipy.OpMakeFunction, Arg: 7},
				minipy.Instr{Op: minipy.OpReturn}), "bad_make_function"},
			{module("calls_bad", fnConsts, append(defineBad,
				minipy.Instr{Op: minipy.OpLoadGlobal, Arg: 0},
				minipy.Instr{Op: minipy.OpCall, Arg: 0},
				minipy.Instr{Op: minipy.OpReturn})...), "bad_fn"},
		} {
			if err := run(mode, c.code); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: RunModule(%s) = %v, want an error naming %s", mode, c.code.Name, err, c.want)
			}
		}
		in := New(Config{Mode: mode})
		if _, err := in.RunModule(module("defines_bad", fnConsts, append(defineBad,
			minipy.Instr{Op: minipy.OpLoadConst, Arg: 1},
			minipy.Instr{Op: minipy.OpReturn})...)); err != nil {
			t.Fatalf("%s: defining bad_fn: %v", mode, err)
		}
		if _, err := in.CallGlobal("bad_fn"); err == nil || !strings.Contains(err.Error(), "bad_fn") {
			t.Errorf("%s: CallGlobal(bad_fn) = %v, want an error naming bad_fn", mode, err)
		}
	}
}

// TestFrameTablesDisagreeingWithOpsAreErrors covers the tables a frame is
// built from besides the ops: the line table, which a raising op indexes,
// and the cell-boxed local slots, which a call indexes. Verify and the
// lowering share one check of both, so such a code object is an error for
// Verify and for RunModule, never a panic.
func TestFrameTablesDisagreeingWithOpsAreErrors(t *testing.T) {
	for _, c := range []struct {
		name, src string
		mutate    func(module *minipy.Code)
	}{
		{"no line table", "x = 1 // 0\n", func(m *minipy.Code) { m.Lines = nil }},
		{"cell local out of range",
			"def f():\n    y = 1\n    def g():\n        return y\n    return g()\nf()\n",
			func(m *minipy.Code) {
				for _, k := range m.Consts {
					if f, ok := k.(*minipy.Code); ok && f.Name == "f" {
						f.CellLocals[0] = 999
					}
				}
			}},
	} {
		for _, mode := range []Mode{ModeInterp, ModeJIT} {
			t.Run(c.name+"/"+mode.String(), func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic: %v", r)
					}
				}()
				code, err := minipy.CompileSource(c.src)
				if err != nil {
					t.Fatal(err)
				}
				c.mutate(code)
				if err := minipy.Verify(code); err == nil {
					t.Error("Verify accepted the code object")
				}
				if _, err := New(Config{Mode: mode}).RunModule(code); err == nil {
					t.Error("RunModule returned no error")
				}
			})
		}
	}
}

func TestRecursionLimit(t *testing.T) {
	in := New(Config{MaxDepth: 50})
	_, err := in.RunSource("def f(n):\n    return f(n + 1)\nf(0)")
	re, ok := err.(*RuntimeError)
	if !ok || re.Kind != "RecursionError" {
		t.Fatalf("expected RecursionError, got %v", err)
	}
}

func TestStepBudget(t *testing.T) {
	in := New(Config{MaxSteps: 1000})
	_, err := in.RunSource("while True:\n    pass")
	re, ok := err.(*RuntimeError)
	if !ok || re.Kind != "TimeoutError" {
		t.Fatalf("expected TimeoutError, got %v", err)
	}
}

func TestCallGlobal(t *testing.T) {
	in := New(Config{})
	if _, err := in.RunSource("def run(n):\n    return n * 2"); err != nil {
		t.Fatal(err)
	}
	v, err := in.CallGlobal("run", minipy.Int(21))
	if err != nil {
		t.Fatal(err)
	}
	if v != minipy.Int(42) {
		t.Fatalf("got %v, want 42", v)
	}
	if _, err := in.CallGlobal("nope"); err == nil {
		t.Fatal("expected NameError for missing global")
	}
}

func TestCountersAdvance(t *testing.T) {
	in := New(Config{})
	before := in.CountersSnapshot()
	if _, err := in.RunSource("x = 0\nfor i in range(100):\n    x += i"); err != nil {
		t.Fatal(err)
	}
	after := in.CountersSnapshot()
	d := after.Sub(before)
	if d.Steps == 0 || d.Instructions == 0 || d.Cycles == 0 {
		t.Fatalf("counters did not advance: %+v", d)
	}
	if d.Cycles < d.Instructions {
		t.Fatalf("cycles (%d) should be >= instructions (%d)", d.Cycles, d.Instructions)
	}
}

func TestJITSpeedsUpHotLoop(t *testing.T) {
	src := `
def run():
    total = 0
    for i in range(2000):
        total += i * i
    return total
run()
`
	interp := New(Config{Mode: ModeInterp})
	if _, err := interp.RunSource(src); err != nil {
		t.Fatal(err)
	}
	jit := New(Config{Mode: ModeJIT})
	if _, err := jit.RunSource(src); err != nil {
		t.Fatal(err)
	}
	ic := interp.CountersSnapshot()
	jc := jit.CountersSnapshot()
	if jc.Cycles >= ic.Cycles {
		t.Fatalf("JIT (%d cycles) should beat interpreter (%d cycles) on a hot loop",
			jc.Cycles, ic.Cycles)
	}
	traces, _, _ := jit.JITStats()
	if traces == 0 {
		t.Fatal("JIT compiled no traces on a hot loop")
	}
}

func TestJITWarmupCurve(t *testing.T) {
	// Iterating the same function within one invocation must show warmup:
	// later iterations cheaper than the first.
	src := `
def run():
    total = 0
    for i in range(500):
        total += i
    return total
`
	jit := New(Config{Mode: ModeJIT})
	if _, err := jit.RunSource(src); err != nil {
		t.Fatal(err)
	}
	var perIter []uint64
	for i := 0; i < 10; i++ {
		before := jit.CountersSnapshot().Cycles
		if _, err := jit.CallGlobal("run"); err != nil {
			t.Fatal(err)
		}
		perIter = append(perIter, jit.CountersSnapshot().Cycles-before)
	}
	if perIter[9] >= perIter[0] {
		t.Fatalf("expected warmup: first iter %d cycles, last iter %d cycles", perIter[0], perIter[9])
	}
}

func TestEnginesAgreeOnLargerProgram(t *testing.T) {
	src := `
def quicksort(xs):
    if len(xs) < 2:
        return xs
    pivot = xs[0]
    less = []
    more = []
    for v in xs[1:]:
        if v < pivot:
            less.append(v)
        else:
            more.append(v)
    return quicksort(less) + [pivot] + quicksort(more)

seed = 12345
vals = []
for i in range(200):
    seed = (seed * 1103515245 + 12345) % 2147483648
    vals.append(seed % 1000)
out = quicksort(vals)
ok = True
for i in range(1, len(out)):
    if out[i - 1] > out[i]:
        ok = False
print(ok, len(out), out[0], out[-1])
`
	out := runSrcBoth(t, src)
	if !strings.HasPrefix(out, "True 200 ") {
		t.Fatalf("unexpected output: %q", out)
	}
}
