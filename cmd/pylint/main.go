// Command pylint statically analyzes MiniPy programs: control-flow and
// dominator construction, definite-assignment checking, liveness/dead-store
// detection, the determinism/purity audit, and one abstract interpreter
// that reports certain type errors and derives the interprocedural
// certificate (call graph, intervals, escape, effects, step bound) — the
// same passes the harness runs before measuring a workload, exposed as a
// standalone linter for sources outside the shipped suite.
//
// Usage:
//
//	pylint prog.py [more.py ...]   # lint source files
//	pylint -bench fib              # lint a shipped benchmark by name
//	pylint -all                    # lint every shipped benchmark
//	pylint -strict prog.py         # warnings also fail (exit 1)
//	pylint -cfg prog.py            # additionally dump each function's CFG
//	pylint -facts prog.py          # dump the analysis certificate as JSON
//
// Exit status follows the repository taxonomy (internal/exitcode): 0 clean,
// 1 findings (errors; with -strict also warnings), 2 usage, 3 unreadable
// input. Diagnostics are positioned:
//
//	prog.py: f:3: error[use-before-def]: variable "x" is used before any assignment
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
	"repro/internal/exitcode"
	"repro/internal/minipy"
	"repro/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the resolved command-line flags for one invocation.
type options struct {
	strict  bool
	dumpCFG bool
	facts   bool
	quiet   bool
}

// run is the whole command behind an exit code; main only maps it onto
// os.Exit. Keeping every path — flag errors, unknown benchmarks,
// unreadable files, findings — inside one function is what lets the unit
// tests drive the full exit-status taxonomy without spawning a process.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("pylint", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		benchName = fl.String("bench", "", "lint a shipped benchmark by name instead of files")
		all       = fl.Bool("all", false, "lint every shipped benchmark (canonical + extended)")
		opts      options
	)
	fl.BoolVar(&opts.strict, "strict", false, "treat warnings as failures")
	fl.BoolVar(&opts.dumpCFG, "cfg", false, "dump each function's control-flow graph")
	fl.BoolVar(&opts.facts, "facts", false, "dump each target's analysis certificate as JSON")
	fl.BoolVar(&opts.quiet, "q", false, "suppress the per-target summary line, print findings only")
	fl.Usage = func() {
		fmt.Fprintf(fl.Output(), "usage: pylint [flags] [file.py ...]\n\nFlags:\n")
		fl.PrintDefaults()
	}
	if err := fl.Parse(args); err != nil {
		return exitcode.Usage
	}

	type target struct {
		name string
		src  string
	}
	var targets []target
	switch {
	case *all:
		for _, b := range append(workloads.Suite(), workloads.Extended()...) {
			targets = append(targets, target{b.Name, b.Source})
		}
	case *benchName != "":
		b, ok := workloads.ByName(*benchName)
		if !ok {
			fmt.Fprintf(stderr, "pylint: unknown benchmark %q\n", *benchName)
			return exitcode.Usage
		}
		targets = append(targets, target{b.Name, b.Source})
	default:
		if fl.NArg() == 0 {
			fl.Usage()
			return exitcode.Usage
		}
		for _, path := range fl.Args() {
			data, err := os.ReadFile(path)
			if err != nil {
				fmt.Fprintf(stderr, "pylint: %v\n", err)
				return exitcode.Infra
			}
			targets = append(targets, target{path, string(data)})
		}
	}

	failed := false
	for _, tg := range targets {
		if lintOne(tg.name, tg.src, opts, stdout, stderr) {
			failed = true
		}
	}
	if failed {
		return exitcode.Finding
	}
	return exitcode.OK
}

// lintOne analyzes a single program and prints its findings; the return
// value reports whether the target fails under the chosen strictness.
func lintOne(name, src string, opts options, stdout, stderr io.Writer) (failed bool) {
	code, err := minipy.CompileSource(src)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
		return true
	}
	rep, err := analysis.Analyze(code)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
		return true
	}
	for _, d := range rep.Diagnostics {
		fmt.Fprintf(stdout, "%s: %s\n", name, d)
	}
	if opts.dumpCFG {
		for _, f := range rep.Funcs {
			fmt.Fprint(stdout, f.Graph.String())
		}
	}
	if opts.facts {
		buf, err := json.MarshalIndent(rep.Certificate, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "%s: encoding certificate: %v\n", name, err)
			return true
		}
		fmt.Fprintf(stdout, "%s\n", buf)
	}
	s := rep.Summarize()
	if !opts.quiet {
		det := "deterministic"
		if !s.Certificate.Determinism.Certified {
			det = fmt.Sprintf("NOT certified (unresolved: %v)",
				s.Certificate.Determinism.UnresolvedGlobals)
		} else if s.Certificate.Determinism.UsesIO {
			det = "deterministic (uses io)"
		}
		fmt.Fprintf(stdout, "%s: %d funcs, %d blocks, %d instrs, %.1f%% typed, %d error(s), %d warning(s), %s\n",
			name, s.Functions, s.Blocks, s.Instructions, s.TypedInstrPct,
			s.Errors, s.Warnings, det)
	}
	if s.Errors > 0 {
		return true
	}
	if opts.strict && (s.Warnings > 0 || !s.Certificate.Determinism.Certified) {
		return true
	}
	return false
}
