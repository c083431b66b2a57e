// Command benchjson converts `go test -bench -benchmem` text output into a
// stable JSON document, and optionally compares it against a committed
// baseline (BENCH_vm.json) so the repo accumulates a real wall-clock perf
// trajectory alongside the simulated results.
//
// Usage:
//
//	go test ./internal/vm -bench . -benchmem | benchjson -out BENCH_vm.json
//	go test ./internal/vm -bench . -benchmem | benchjson -baseline BENCH_vm.json
//	go test ... | benchjson -baseline BENCH_vm.json -max-alloc-growth 10 -max-bytes-growth 25
//
// Comparison prints per-benchmark ns/op deltas. Wall-clock numbers are
// host-dependent, so the ns/op deltas are informational only.
// allocs_per_op and bytes_per_op, by contrast, are host-stable, so
// -max-alloc-growth / -max-bytes-growth gate *every* benchmark's memory
// profile against the baseline: exit 1 when any grows
// past the given percentage AND past the absolute practical-effect floor
// (-alloc-floor / -bytes-floor) — the floor keeps one-allocation jitter on
// lean benchmarks from failing CI (see internal/benchfmt.MemGate).
//
// Emitted documents carry a provenance block (commit SHA, branch, Go
// version, UTC timestamp — override with -commit/-branch, drop with
// -no-stamp), so a committed baseline such as BENCH_vm.json records which
// commit and toolchain measured it.
//
// Exit codes follow the repository taxonomy: 0 = pass; 1 = a memory gate
// failed; 2 = usage; 3 = unreadable/unwritable input or output.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
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
	)
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
		if *allocPct >= 0 || *bytesPct >= 0 {
			fmt.Fprintln(stderr, "benchjson: the memory gates need -baseline")
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
	return compare(base, doc, th, stdout, stderr)
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

// compare prints per-benchmark ns/op deltas vs. the baseline, under a
// `pkg:` line per package, and enforces the memory gate. Entries match by
// package and name. A negative delta means the candidate is faster.
func compare(base, cand *Doc, th benchfmt.MemThresholds, stdout, stderr io.Writer) int {
	fmt.Fprintf(stdout, "%-28s %14s %14s %9s %14s\n", "benchmark", "base ns/op", "new ns/op", "delta", "allocs/op")
	pkg := ""
	for _, e := range cand.Benchmarks {
		if e.Pkg != pkg {
			pkg = e.Pkg
			fmt.Fprintf(stdout, "pkg: %s\n", pkg)
		}
		b, ok := base.Entry(e.Pkg, e.Name)
		if !ok {
			fmt.Fprintf(stdout, "%-28s %14s %14.0f %9s %8d->%-5d\n", e.Name, "(new)", e.NsPerOp, "", 0, e.AllocsPerOp)
			continue
		}
		fmt.Fprintf(stdout, "%-28s %14.0f %14.0f %+8.1f%% %8d->%-5d\n",
			e.Name, b.NsPerOp, e.NsPerOp, 100*(e.NsPerOp/b.NsPerOp-1), b.AllocsPerOp, e.AllocsPerOp)
	}
	failed := 0
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
