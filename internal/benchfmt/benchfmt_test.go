package benchfmt

import (
	"slices"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro/internal/vm
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkDispatchArith-8   	     471	    469526 ns/op	   79336 B/op	    9176 allocs/op
BenchmarkDispatchArith-8   	     480	    450000 ns/op	   79336 B/op	    9176 allocs/op
BenchmarkNoMem-8           	    1000	      1234.5 ns/op
PASS
ok  	repro/internal/vm	2.124s
`

func TestParseKeepsFastestRun(t *testing.T) {
	doc, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Goos != "linux" || doc.CPU == "" {
		t.Errorf("header not parsed: %+v", doc)
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2 (duplicates folded)", len(doc.Benchmarks))
	}
	e, ok := doc.Entry("repro/internal/vm", "BenchmarkDispatchArith")
	if !ok || e.NsPerOp != 450000 || e.AllocsPerOp != 9176 {
		t.Errorf("fastest run not kept: %+v", e)
	}
	if _, ok := doc.Entry("repro/internal/vm", "BenchmarkMissing"); ok {
		t.Error("Entry found a benchmark that is not there")
	}
}

// twoPackages is one `go test -bench` run over two packages that both
// hold a BenchmarkShared.
const twoPackages = `goos: linux
goarch: amd64
pkg: repro/internal/stats
cpu: Intel(R) Xeon(R) Processor
BenchmarkShared-2     	     100	      2000 ns/op	       0 B/op	       0 allocs/op
BenchmarkStatsOnly-2  	     100	      3000 ns/op	       8 B/op	       1 allocs/op
PASS
ok  	repro/internal/stats	1.000s
goos: linux
goarch: amd64
pkg: repro/internal/methodology
cpu: Intel(R) Xeon(R) Processor
BenchmarkShared-2     	     100	      1000 ns/op	      64 B/op	       2 allocs/op
PASS
ok  	repro/internal/methodology	1.000s
`

// TestParseKeepsEachEntrysPackage parses a run over two packages with one
// benchmark name in common: each entry keeps its own package, Entry finds
// each by package and name, and MemGate compares each only with its own
// package's baseline.
func TestParseKeepsEachEntrysPackage(t *testing.T) {
	doc, err := Parse(strings.NewReader(twoPackages))
	if err != nil {
		t.Fatal(err)
	}
	want := []Entry{
		{Pkg: "repro/internal/stats", Name: "BenchmarkShared", Iterations: 100, NsPerOp: 2000},
		{Pkg: "repro/internal/stats", Name: "BenchmarkStatsOnly", Iterations: 100, NsPerOp: 3000, BytesPerOp: 8, AllocsPerOp: 1},
		{Pkg: "repro/internal/methodology", Name: "BenchmarkShared", Iterations: 100, NsPerOp: 1000, BytesPerOp: 64, AllocsPerOp: 2},
	}
	if !slices.Equal(doc.Benchmarks, want) {
		t.Fatalf("entries %+v, want %+v", doc.Benchmarks, want)
	}
	for _, w := range want {
		if e, ok := doc.Entry(w.Pkg, w.Name); !ok || e != w {
			t.Errorf("Entry(%q, %q) = %+v, %v; want %+v", w.Pkg, w.Name, e, ok, w)
		}
	}
	if _, ok := doc.Entry("repro/internal/methodology", "BenchmarkStatsOnly"); ok {
		t.Error("Entry found a benchmark in a package that does not hold it")
	}
	// The stats package's BenchmarkShared allocates as much as the
	// methodology one did: a violation in stats alone.
	cand := docOf(
		Entry{Pkg: "repro/internal/stats", Name: "BenchmarkShared", AllocsPerOp: 1000},
		Entry{Pkg: "repro/internal/methodology", Name: "BenchmarkShared", AllocsPerOp: 2},
	)
	v := MemGate(doc, cand, DefaultMemThresholds())
	if len(v) != 1 || v[0].Pkg != "repro/internal/stats" || v[0].Base != 0 ||
		!strings.HasPrefix(v[0].String(), "repro/internal/stats.BenchmarkShared: allocs/op grew 0 -> 1000") {
		t.Errorf("want one violation on the stats package's BenchmarkShared, got %v", v)
	}
	// An entry that names no package, as older documents have, matches
	// by name alone.
	legacy := docOf(Entry{Name: "BenchmarkShared", AllocsPerOp: 2})
	if e, ok := legacy.Entry("repro/internal/stats", "BenchmarkShared"); !ok || e.AllocsPerOp != 2 {
		t.Errorf("legacy entry not matched by name: %+v, %v", e, ok)
	}
}

func TestWriteRoundTrips(t *testing.T) {
	doc := &Doc{Commit: "abc", Benchmarks: []Entry{{Name: "BenchmarkX", NsPerOp: 10}}}
	var sb strings.Builder
	if err := doc.Write(&sb); err != nil {
		t.Fatal(err)
	}
	s := sb.String()
	if !strings.Contains(s, `"commit": "abc"`) || !strings.Contains(s, `"name": "BenchmarkX"`) {
		t.Errorf("written doc missing fields:\n%s", s)
	}
}
