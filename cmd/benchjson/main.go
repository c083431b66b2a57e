// Command benchjson converts `go test -bench -benchmem` text output into a
// stable JSON document, and optionally compares it against a committed
// baseline (BENCH_vm.json) so the repo accumulates a real wall-clock perf
// trajectory alongside the simulated results.
//
// Usage:
//
//	go test ./internal/vm -bench . -benchmem | benchjson -out BENCH_vm.json
//	go test ./internal/vm -bench . -benchmem | benchjson -baseline BENCH_vm.json
//	go test ... | benchjson -baseline BENCH_vm.json -require BenchmarkDispatchArith:25
//	go test ... | benchjson -baseline BENCH_vm.json -max-alloc-growth 10 -max-bytes-growth 25
//
// Comparison prints per-benchmark ns/op deltas. Wall-clock numbers are
// host-dependent, so the ns/op compare mode is informational by default;
// -require NAME:PCT entries turn specific improvements into hard gates
// (exit 1 when the named benchmark improved by less than PCT percent vs.
// the baseline). allocs_per_op and bytes_per_op, by contrast, are
// host-stable, so -max-alloc-growth / -max-bytes-growth gate *every*
// benchmark's memory profile against the baseline: exit 1 when any grows
// past the given percentage AND past the absolute practical-effect floor
// (-alloc-floor / -bytes-floor) — the floor keeps one-allocation jitter on
// lean benchmarks from failing CI (see internal/benchfmt.MemGate).
//
// Emitted documents carry a provenance block (commit SHA, branch, Go
// version, UTC timestamp — override with -commit/-branch, drop with
// -no-stamp), so a committed baseline such as BENCH_vm.json records which
// commit and toolchain measured it.
//
// Exit codes follow the repository taxonomy: 0 = pass; 1 = a -require or
// memory gate failed; 2 = usage; 3 = unreadable/unwritable input or output.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/exitcode"
)

// Doc and Entry are the shared benchmark-document model (the committed
// BENCH_vm.json shape), owned by internal/benchfmt since the memory gate
// moved there.
type (
	Doc   = benchfmt.Doc
	Entry = benchfmt.Entry
)

func parse(r io.Reader) (*Doc, error) { return benchfmt.Parse(r) }

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

type requirement struct {
	name string
	pct  float64
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	def := benchfmt.DefaultMemThresholds()
	var (
		outPath  = fs.String("out", "", "write the parsed JSON document to this file ('-' = stdout)")
		basePath = fs.String("baseline", "", "compare against this baseline JSON document")
		commit   = fs.String("commit", "", "commit SHA to stamp into the document (default: git rev-parse HEAD)")
		branch   = fs.String("branch", "", "branch name to stamp (default: git rev-parse --abbrev-ref HEAD)")
		noStamp  = fs.Bool("no-stamp", false, "omit the provenance block (commit/branch/go version/time)")

		allocPct   = fs.Float64("max-alloc-growth", -1, "fail when any benchmark's allocs_per_op grew more than this percent vs. the baseline (negative = off)")
		bytesPct   = fs.Float64("max-bytes-growth", -1, "fail when any benchmark's bytes_per_op grew more than this percent vs. the baseline (negative = off)")
		allocFloor = fs.Int64("alloc-floor", def.AllocFloor, "absolute allocs_per_op growth below which the alloc gate never fails")
		bytesFloor = fs.Int64("bytes-floor", def.BytesFloor, "absolute bytes_per_op growth below which the bytes gate never fails")

		requires requireList
	)
	fs.Var(&requires, "require", "NAME:PCT — fail unless NAME improved by at least PCT% vs. the baseline (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	doc, err := parse(stdin)
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return exitcode.Infra
	}
	if len(doc.Benchmarks) == 0 {
		fmt.Fprintln(stderr, "benchjson: no benchmark lines found on input")
		return exitcode.Infra
	}
	if !*noStamp {
		stampProvenance(doc, *commit, *branch)
	}
	if *outPath != "" {
		if err := writeDoc(doc, *outPath, stdout); err != nil {
			fmt.Fprintln(stderr, "benchjson:", err)
			return exitcode.Infra
		}
	}
	if *basePath == "" {
		if *outPath == "" {
			// No baseline and no -out: emit the document to stdout.
			if err := writeDoc(doc, "-", stdout); err != nil {
				fmt.Fprintln(stderr, "benchjson:", err)
				return exitcode.Infra
			}
		}
		if len(requires) > 0 || *allocPct >= 0 || *bytesPct >= 0 {
			fmt.Fprintln(stderr, "benchjson: -require and the memory gates need -baseline")
			return exitcode.Usage
		}
		return exitcode.OK
	}
	base, err := benchfmt.ReadFile(*basePath)
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return exitcode.Infra
	}
	th := benchfmt.MemThresholds{
		MaxAllocGrowthPct: *allocPct,
		MaxBytesGrowthPct: *bytesPct,
		AllocFloor:        *allocFloor,
		BytesFloor:        *bytesFloor,
	}
	return compare(base, doc, requires, th, stdout, stderr)
}

// requireList parses repeated -require NAME:PCT flags.
type requireList []requirement

func (r *requireList) String() string { return fmt.Sprint([]requirement(*r)) }

func (r *requireList) Set(s string) error {
	i := strings.LastIndex(s, ":")
	if i < 0 {
		return fmt.Errorf("want NAME:PCT, got %q", s)
	}
	pct, err := strconv.ParseFloat(s[i+1:], 64)
	if err != nil {
		return fmt.Errorf("bad percentage in %q: %v", s, err)
	}
	*r = append(*r, requirement{name: s[:i], pct: pct})
	return nil
}

// stampProvenance fills the document's provenance block.
// Explicit flags win; otherwise commit and branch come from git. A missing
// git (exported tree, bare container) degrades attribution, never the
// document: the fields are simply left empty.
func stampProvenance(doc *Doc, commit, branch string) {
	if commit == "" {
		commit = gitOutput("rev-parse", "HEAD")
	}
	if branch == "" {
		branch = gitOutput("rev-parse", "--abbrev-ref", "HEAD")
	}
	doc.Commit = commit
	doc.Branch = branch
	doc.GoVersion = runtime.Version()
	doc.TimeUTC = time.Now().UTC().Format(time.RFC3339) //benchlint:allow clock
}

// gitOutput shells out to git, returning "" when git or the repo is absent.
func gitOutput(args ...string) string {
	out, err := exec.Command("git", args...).Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func writeDoc(doc *Doc, path string, stdout io.Writer) error {
	if path == "-" {
		return doc.Write(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := doc.Write(f); err != nil {
		//benchlint:allow uncheckederr — already failing; the write error wins
		f.Close()
		return err
	}
	return f.Close()
}

// compare prints per-benchmark ns/op deltas vs. the baseline and enforces
// any -require thresholds plus the memory gate. Positive improvement =
// candidate is faster.
func compare(base, cand *Doc, reqs []requirement, th benchfmt.MemThresholds, stdout, stderr io.Writer) int {
	improvements := map[string]float64{}
	fmt.Fprintf(stdout, "%-28s %14s %14s %9s %14s\n", "benchmark", "base ns/op", "new ns/op", "delta", "allocs/op")
	for _, e := range cand.Benchmarks {
		b, ok := base.Entry(e.Name)
		if !ok {
			fmt.Fprintf(stdout, "%-28s %14s %14.0f %9s %8d->%-5d\n", e.Name, "(new)", e.NsPerOp, "", 0, e.AllocsPerOp)
			continue
		}
		imp := 100 * (1 - e.NsPerOp/b.NsPerOp)
		improvements[e.Name] = imp
		fmt.Fprintf(stdout, "%-28s %14.0f %14.0f %+8.1f%% %8d->%-5d\n",
			e.Name, b.NsPerOp, e.NsPerOp, -imp, b.AllocsPerOp, e.AllocsPerOp)
	}
	failed := 0
	for _, r := range reqs {
		imp, ok := improvements[r.name]
		switch {
		case !ok:
			fmt.Fprintf(stderr, "benchjson: FAIL: %s missing from candidate or baseline\n", r.name)
			failed++
		case imp < r.pct:
			fmt.Fprintf(stderr, "benchjson: FAIL: %s improved %.1f%%, need >= %.1f%%\n", r.name, imp, r.pct)
			failed++
		default:
			fmt.Fprintf(stdout, "benchjson: PASS: %s improved %.1f%% (>= %.1f%%)\n", r.name, imp, r.pct)
		}
	}
	if th.MaxAllocGrowthPct >= 0 || th.MaxBytesGrowthPct >= 0 {
		violations := benchfmt.MemGate(base, cand, th)
		for _, v := range violations {
			fmt.Fprintf(stderr, "benchjson: FAIL: %v\n", v)
			failed++
		}
		if len(violations) == 0 {
			fmt.Fprintf(stdout, "benchjson: PASS: memory gate (alloc growth <= %.0f%% or <= %d allocs; bytes growth <= %.0f%% or <= %d B)\n",
				th.MaxAllocGrowthPct, th.AllocFloor, th.MaxBytesGrowthPct, th.BytesFloor)
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}
