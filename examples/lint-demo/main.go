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
}
