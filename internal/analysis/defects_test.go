package analysis

// The defect programs below are shared by the rule tests in this package,
// the VM cross-check in property_test.go and the lint golden
// (lint_golden_test.go), which pins every diagnostic they produce. They are
// exported so the external test package can read the same table.

// DefectProgram is one source fixture with the finding a rule test expects:
// a diagnostic whose message contains Frag, at source line Line (0: any).
type DefectProgram struct {
	Name string
	Src  string
	Frag string
	Line int
}

// CertainTypeErrors each carry one statically certain type error.
var CertainTypeErrors = []DefectProgram{
	{"str-minus-str", "def f():\n    return \"a\" - \"b\"\n", "unsupported operand", 2},
	{"int-plus-none", "def f():\n    x = None\n    return 1 + x\n", "unsupported operand", 3},
	{"int-times-list", "def f():\n    return 3 * [1, 2]\n", "unsupported operand", 2},
	{"subscript-int", "def f():\n    x = 5\n    return x[0]\n", "not subscriptable", 3},
	{"call-int", "def f():\n    x = 7\n    return x()\n", "not callable", 3},
	{"iter-float", "def f():\n    for v in 1.5:\n        pass\n    return 0\n", "not iterable", 2},
	{"attr-on-int", "def f():\n    x = 3\n    return x.bits\n", "no attribute", 3},
	{"unknown-list-method", "def f():\n    l = [1]\n    return l.push(2)\n", "no attribute", 3},
	{"neg-str", "def f():\n    return -\"abc\"\n", "unary -", 2},
	{"store-index-str", "def f():\n    s = \"abc\"\n    s[0] = \"x\"\n    return s\n", "item assignment", 3},
	{"str-mod", "def f():\n    return \"x\" % 3\n", "unsupported operand", 2},
}

// RuntimeDefects are run() programs with a certain defect that the VM must
// also raise on.
var RuntimeDefects = []DefectProgram{
	{Name: "str-sub", Src: "def run():\n    return \"a\" - \"b\"\n"},
	{Name: "none-add", Src: "def run():\n    x = None\n    return x + 1\n"},
	{Name: "int-call", Src: "def run():\n    x = 3\n    return x()\n"},
	{Name: "float-iter", Src: "def run():\n    s = 0\n    for v in 2.5:\n        s = s + 1\n    return s\n"},
	{Name: "int-index", Src: "def run():\n    x = 9\n    return x[0]\n"},
	{Name: "tuple-setitem", Src: "def run():\n    tp = (1, 2)\n    tp[0] = 3\n    return tp\n"},
	{Name: "use-before-def", Src: "def run():\n    y = z + 1\n    z = 0\n    return y\n"},
}

// DefiniteAssignment are the shapes of the two definite-assignment rules:
// a local unassigned on every path (use-before-def), on some path
// (possibly-unassigned, once per variable), and the cell-boxed locals,
// which only STORE_CELL assigns and which a call never proves assigned.
var DefiniteAssignment = []DefectProgram{
	{Name: "one-armed", Src: "def f(c):\n    if c:\n        x = 1\n    return x\n"},
	{Name: "else-armed", Src: "def f(c):\n    if c:\n        pass\n    else:\n        x = 2\n    return x + x\n"},
	{Name: "both-arms", Src: "def f(c):\n    if c:\n        x = 1\n    else:\n        x = 2\n    return x\n"},
	{Name: "never-assigned", Src: "def f():\n    return x\n    x = 1\n"},
	{Name: "loop-var-after-loop", Src: "def f(n):\n    for i in range(n):\n        pass\n    return i\n"},
	{Name: "while-body-only", Src: "def f(n):\n    while n > 0:\n        z = n\n        n = n - 1\n    return z\n"},
	{Name: "copy-of-unbound", Src: "def f():\n    y = x\n    x = 1\n    return y + y\n"},
	{Name: "copy-of-maybe-unbound", Src: "def f(c):\n    if c:\n        x = 1\n    y = x\n    return y + x\n"},
	{Name: "cell-one-arm", Src: "def f(c):\n    if c:\n        x = 1\n    def g():\n        return x\n    return x + g()\n"},
	{Name: "cell-before-store", Src: "def f():\n    y = x\n    x = 1\n    def g():\n        return x\n    return y + g()\n"},
	{Name: "cell-over-param", Src: "def f(x):\n    def g():\n        return x\n    return x + g()\n"},
	{Name: "nonlocal-rebind", Src: "def f(c):\n    def setx():\n        nonlocal x\n        x = 1\n    if c:\n        x = 0\n    setx()\n    return x\n"},
	{Name: "nonlocal-after-store", Src: "def f():\n    x = 0\n    def inc():\n        nonlocal x\n        x = x + 1\n    inc()\n    return x\n"},
}

var (
	// ModuleTypedGlobal: g is a module constant no function rebinds, so
	// g - g on strings is a certain error.
	ModuleTypedGlobal = DefectProgram{Name: "module-typed-global", Src: `
g = "const"

def f():
    return g - g
`, Frag: "unsupported operand", Line: 5}

	// GlobalMutation: g is an int at module level but a function rebinds
	// it to a str, so reads see ⊤ and g + 1 cannot be flagged.
	GlobalMutation = DefectProgram{Name: "global-mutation-demotes", Src: `
g = 1

def rebind():
    global g
    g = "s"

def f():
    return g + 1
`}

	// SilentValid joins an int and a str arm: the join degrades to ⊤,
	// never to a false error.
	SilentValid = DefectProgram{Name: "silent-on-valid", Src: `
def f(flag):
    if flag:
        x = 1
    else:
        x = "s"
    return str(x) + "!"

def run():
    return f(True) + f(False)
`}

	// UnresolvedGlobal calls a name neither the module nor the builtins
	// define.
	UnresolvedGlobal = DefectProgram{Name: "unresolved-global", Src: `
def run():
    return mystery_global()
`, Frag: "mystery_global"}
)

// LintGoldenDefects lists every defect program the lint golden pins, each
// with a unique row name.
func LintGoldenDefects() []DefectProgram {
	var out []DefectProgram
	for _, p := range CertainTypeErrors {
		p.Name = "type-error/" + p.Name
		out = append(out, p)
	}
	for _, p := range RuntimeDefects {
		p.Name = "runtime/" + p.Name
		out = append(out, p)
	}
	out = append(out, ModuleTypedGlobal, GlobalMutation, SilentValid, UnresolvedGlobal)
	for _, p := range DefiniteAssignment {
		p.Name = "definite-assignment/" + p.Name
		out = append(out, p)
	}
	return out
}
