// lint-demo: demonstrate the static-analysis subsystem (DESIGN.md §9) —
// control-flow graphs, definite assignment, certain type errors from the
// abstract interpreter's class component, dead stores, and the determinism
// certificate that rides every JSON result.
//
//	go run ./examples/lint-demo
package main

import (
	"fmt"
	"log"

	"repro/internal/analysis"
	"repro/internal/minipy"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// defective seeds one finding of each kind the analyzer reports. Every
// error here is statically *certain*: the VM would raise on any execution
// reaching the flagged instruction.
const defective = `
def shadow(n):
    total = 0
    for i in range(n):
        total = total + i
    waste = total * 2
    return total

def broken(flag):
    if flag:
        x = 1
    y = x + 1
    return "v" - y

def impure():
    return mystery() + 1

def run():
    return shadow(10) + broken(True) + impure()
`

func main() {
	// Part 1: a clean shipped workload, end to end.
	b, _ := workloads.ByName("fib")
	rep, err := b.Analyze()
	if err != nil {
		log.Fatal(err)
	}
	s := rep.Summarize()
	fmt.Println("Shipped workload 'fib'")
	fmt.Println("----------------------")
	fmt.Printf("functions=%d blocks=%d instructions=%d typed=%.1f%% findings=%d\n",
		s.Functions, s.Blocks, s.Instructions, s.TypedInstrPct, s.Errors+s.Warnings)
	fmt.Printf("determinism certificate: certified=%v builtins=%v\n\n",
		s.Certificate.Determinism.Certified, s.Certificate.Determinism.Builtins)

	// Its CFGs, as the golden tests render them.
	fmt.Println("Control-flow graph of fib's run():")
	for _, f := range rep.Funcs {
		if f.Name == "run" {
			fmt.Print(f.Graph.String())
		}
	}
	fmt.Println()

	// Part 1b: the same workload after the -opt 2 bytecode optimizer. The
	// analyzer decodes superinstructions (fused loads, BINARY_JUMP_IF_FALSE
	// edges), so optimized code flows through the same CFG/liveness/type
	// passes and earns the same determinism certificate.
	base, err := b.Compile()
	if err != nil {
		log.Fatal(err)
	}
	optCode, err := minipy.Optimize(base, 2, analysis.OptimizationFacts(base))
	if err != nil {
		log.Fatal(err)
	}
	repOpt, err := analysis.Analyze(optCode)
	if err != nil {
		log.Fatal(err)
	}
	so := repOpt.Summarize()
	fmt.Println("Same workload at -opt 2 (superinstructions fused)")
	fmt.Println("-------------------------------------------------")
	fmt.Printf("instructions=%d (was %d) typed=%.1f%% findings=%d certified=%v\n\n",
		so.Instructions, s.Instructions, so.TypedInstrPct,
		so.Errors+so.Warnings, so.Certificate.Determinism.Certified)

	// Part 2: a defective program — every diagnostic is positioned.
	code, err := minipy.CompileSource(defective)
	if err != nil {
		log.Fatal(err)
	}
	rep2, err := analysis.Analyze(code)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Defective program")
	fmt.Println("-----------------")
	for _, d := range rep2.Diagnostics {
		fmt.Println(d)
	}
	cert := rep2.Certificate.Determinism
	fmt.Printf("\ndeterminism certificate: certified=%v unresolved=%v\n",
		cert.Certified, cert.UnresolvedGlobals)

	// Part 3: the harness's gate — Check is what every compile path runs;
	// the first certain error rejects the program before measurement.
	if cerr := analysis.Check(code); cerr != nil {
		fmt.Printf("\nharness gate: %v\n", cerr)
	}

	// Part 4: proof-carrying optimization facts (DESIGN.md §14). The -opt 3
	// rewrites fire only where the interprocedural certificate licenses
	// them; where the abstract domains cannot decide, the optimizer must
	// refuse — the guard survives and semantics are bit-identical.
	fmt.Println("\nCertificate-gated rewrites (-opt 3)")
	fmt.Println("-----------------------------------")
	for _, prog := range []struct{ name, src string }{
		{"licensed", guardLicensed},
		{"refused", guardRefused},
	} {
		out, err := factsDemo(prog.name, prog.src)
		if err != nil {
			log.Fatal(err)
		}
		verdict := "REFUSED: guard kept (interval cannot decide the compare)"
		if out.fired {
			verdict = "LICENSED: guard elided (interval proves the compare)"
		}
		fmt.Printf("%-9s %s — run() compares %d -> %d, result %s == %s\n",
			out.name, verdict, out.binBase, out.binOpt, out.baseResult, out.optResult)
	}
}

// guardLicensed is decidable by the interval analysis: the loop variable
// ranges over [0,59] and the threshold is the constant 100, so `i < 100`
// is provably always true and -opt 3 may elide the whole guard.
const guardLicensed = `
def run():
    total = 0
    for i in range(60):
        if i < 100:
            total = total + i
    return total
`

// guardRefused straddles the threshold: i in [0,59] against 30 is true on
// some iterations and false on others, so no license is issued and the
// compare must survive every optimization level.
const guardRefused = `
def run():
    total = 0
    for i in range(60):
        if i < 30:
            total = total + 1
    return total
`

// factsOutcome reports what the certificate licensed on one program: the
// compare count of run() before and after -opt 3 (OpBinary plus the fused
// BINARY_JUMP_IF_FALSE superinstruction, so plain -opt 2 fusion does not
// masquerade as an elision) and both observable results, which must
// always agree.
type factsOutcome struct {
	name       string
	binBase    int
	binOpt     int
	fired      bool
	baseResult string
	optResult  string
}

// factsDemo compiles src, optimizes at -opt 3 under the program's own
// certificate, and executes both versions. It is shared with the dogfood
// test, which pins that the licensed guard is elided and the refused one
// is not.
func factsDemo(name, src string) (factsOutcome, error) {
	base, err := minipy.CompileSource(src)
	if err != nil {
		return factsOutcome{}, fmt.Errorf("%s: compile: %w", name, err)
	}
	opt, err := minipy.Optimize(base, 3, analysis.OptimizationFacts(base))
	if err != nil {
		return factsOutcome{}, fmt.Errorf("%s: optimize: %w", name, err)
	}
	out := factsOutcome{name: name}
	for _, k := range base.Consts {
		if c, ok := k.(*minipy.Code); ok && c.Name == "run" {
			out.binBase = countOp(c, minipy.OpBinary) + countOp(c, minipy.OpBinaryJumpIfFalse)
		}
	}
	for _, k := range opt.Consts {
		if c, ok := k.(*minipy.Code); ok && c.Name == "run" {
			out.binOpt = countOp(c, minipy.OpBinary) + countOp(c, minipy.OpBinaryJumpIfFalse)
		}
	}
	out.fired = out.binOpt < out.binBase
	if out.baseResult, err = runProgram(base); err != nil {
		return factsOutcome{}, fmt.Errorf("%s: base: %w", name, err)
	}
	if out.optResult, err = runProgram(opt); err != nil {
		return factsOutcome{}, fmt.Errorf("%s: optimized: %w", name, err)
	}
	return out, nil
}

func countOp(c *minipy.Code, op minipy.Op) int {
	n := 0
	for _, ins := range c.Ops {
		if ins.Op == op {
			n++
		}
	}
	return n
}

func runProgram(code *minipy.Code) (string, error) {
	in := vm.New(vm.Config{Mode: vm.ModeInterp})
	if _, err := in.RunModule(code); err != nil {
		return "", err
	}
	v, err := in.CallGlobal("run")
	if err != nil {
		return "", err
	}
	return v.Repr(), nil
}
