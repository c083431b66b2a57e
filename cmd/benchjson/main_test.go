package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchfmt"
)

// gateOff disables the memory gate for the ns/op-focused compare tests.
var gateOff = benchfmt.MemThresholds{MaxAllocGrowthPct: -1, MaxBytesGrowthPct: -1}

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro/internal/vm
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkDispatchArith-8   	     471	    469526 ns/op	   79336 B/op	    9176 allocs/op
BenchmarkCallFib-8         	     595	    435366 ns/op	  123320 B/op	    4323 allocs/op
BenchmarkNoMem-8           	    1000	      1234.5 ns/op
PASS
ok  	repro/internal/vm	2.124s
`

func TestParse(t *testing.T) {
	doc, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Goos != "linux" || doc.Goarch != "amd64" || doc.Pkg != "repro/internal/vm" {
		t.Errorf("header = %q/%q/%q", doc.Goos, doc.Goarch, doc.Pkg)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("got %d benchmarks, want 3", len(doc.Benchmarks))
	}
	e := doc.Benchmarks[0]
	if e.Name != "BenchmarkDispatchArith" || e.Iterations != 471 ||
		e.NsPerOp != 469526 || e.BytesPerOp != 79336 || e.AllocsPerOp != 9176 {
		t.Errorf("entry 0 = %+v", e)
	}
	if doc.Benchmarks[2].NsPerOp != 1234.5 || doc.Benchmarks[2].AllocsPerOp != 0 {
		t.Errorf("entry 2 = %+v", doc.Benchmarks[2])
	}
}

func TestRunEmitsJSON(t *testing.T) {
	var out, errB bytes.Buffer
	code := run(nil, strings.NewReader(sampleOutput), &out, &errB)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errB.String())
	}
	if !strings.Contains(out.String(), `"name": "BenchmarkCallFib"`) {
		t.Errorf("JSON output missing benchmark entry:\n%s", out.String())
	}
}

func TestStampProvenance(t *testing.T) {
	var out, errB bytes.Buffer
	code := run([]string{"-commit", "abc123", "-branch", "perf-work"},
		strings.NewReader(sampleOutput), &out, &errB)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errB.String())
	}
	s := out.String()
	if !strings.Contains(s, `"commit": "abc123"`) || !strings.Contains(s, `"branch": "perf-work"`) {
		t.Errorf("provenance flags not stamped:\n%s", s)
	}
	if !strings.Contains(s, `"go_version": "go`) || !strings.Contains(s, `"time_utc": "`) {
		t.Errorf("go version / timestamp not stamped:\n%s", s)
	}
}

func TestNoStampOmitsProvenance(t *testing.T) {
	var out, errB bytes.Buffer
	code := run([]string{"-no-stamp"}, strings.NewReader(sampleOutput), &out, &errB)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errB.String())
	}
	if strings.Contains(out.String(), `"commit"`) || strings.Contains(out.String(), `"time_utc"`) {
		t.Errorf("-no-stamp leaked provenance:\n%s", out.String())
	}
}

// A baseline written before the provenance stamp existed must still load
// and compare (the committed BENCH_vm.json predates the stamp).
func TestCompareToleratesUnstampedBaseline(t *testing.T) {
	base := &Doc{Benchmarks: []Entry{{Name: "BenchmarkDispatchArith", NsPerOp: 1000}}}
	cand := &Doc{Commit: "abc", Benchmarks: []Entry{{Name: "BenchmarkDispatchArith", NsPerOp: 900}}}
	var out, errB bytes.Buffer
	if code := compare(base, cand, gateOff, &out, &errB); code != 0 {
		t.Fatalf("exit %d: %s", code, errB.String())
	}
}

// writeBaseline marshals a doc to a temp file and returns its path.
func writeBaseline(t *testing.T, doc *Doc) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "base.json")
	var buf bytes.Buffer
	if err := doc.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// The memory gate end to end through the CLI: the sample output's 9176
// allocs/op against a 4000-alloc baseline is a clear regression; the same
// numbers pass once the gate is off or the baseline matches.
func TestRunMemoryGate(t *testing.T) {
	lean := writeBaseline(t, &Doc{Benchmarks: []Entry{
		{Name: "BenchmarkDispatchArith", NsPerOp: 400000, BytesPerOp: 79336, AllocsPerOp: 4000},
	}})
	var out, errB bytes.Buffer
	code := run([]string{"-no-stamp", "-baseline", lean, "-max-alloc-growth", "10"},
		strings.NewReader(sampleOutput), &out, &errB)
	if code != 1 {
		t.Fatalf("alloc regression should exit 1, got %d\nstdout: %s", code, out.String())
	}
	if !strings.Contains(errB.String(), "allocs/op grew 4000 -> 9176") {
		t.Errorf("missing violation detail: %s", errB.String())
	}

	match := writeBaseline(t, &Doc{Benchmarks: []Entry{
		{Name: "BenchmarkDispatchArith", NsPerOp: 400000, BytesPerOp: 79336, AllocsPerOp: 9176},
	}})
	out.Reset()
	errB.Reset()
	code = run([]string{"-no-stamp", "-baseline", match, "-max-alloc-growth", "10", "-max-bytes-growth", "25"},
		strings.NewReader(sampleOutput), &out, &errB)
	if code != 0 {
		t.Fatalf("matching baseline should pass, got %d: %s", code, errB.String())
	}
	if !strings.Contains(out.String(), "PASS: memory gate") {
		t.Errorf("missing gate verdict: %s", out.String())
	}
}

// The memory gates require a baseline.
func TestMemoryGateNeedsBaseline(t *testing.T) {
	var out, errB bytes.Buffer
	code := run([]string{"-no-stamp", "-max-alloc-growth", "10"},
		strings.NewReader(sampleOutput), &out, &errB)
	if code != 2 {
		t.Fatalf("want usage exit 2, got %d", code)
	}
}
