// Package benchfmt is the shared model of the repository's wall-clock
// benchmark documents: the JSON shape cmd/benchjson emits (the committed
// BENCH_vm.json), the parser that produces it from `go test -bench
// -benchmem` text, and the memory-regression gate that compares two
// documents' allocs_per_op / bytes_per_op with a practical-effect floor.
//
// cmd/benchjson (emission, compare and the memory gate) is its consumer;
// the package keeps the document type apart from the command so tests
// and tools read the committed files through one definition.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Entry is one benchmark measurement. Pkg is the import path of the
// package the benchmark ran in: one run of `go test` may cover several
// packages, and two of them may hold benchmarks of the same name.
type Entry struct {
	Pkg         string  `json:"pkg,omitempty"`
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// Doc is the benchmark JSON document. The provenance block (commit,
// branch, go_version, time_utc) is stamped on emission so a committed
// baseline says which commit and toolchain measured it; readers tolerate
// docs that predate the stamp.
type Doc struct {
	Goos      string `json:"goos,omitempty"`
	Goarch    string `json:"goarch,omitempty"`
	CPU       string `json:"cpu,omitempty"`
	Commit    string `json:"commit,omitempty"`
	Branch    string `json:"branch,omitempty"`
	GoVersion string `json:"go_version,omitempty"`
	TimeUTC   string `json:"time_utc,omitempty"`

	Benchmarks []Entry `json:"benchmarks"`
}

// Entry returns the measurement of the benchmark name in package pkg, if
// present. An entry that names no package, as in documents written before
// entries carried their package, matches name in any package.
func (d *Doc) Entry(pkg, name string) (Entry, bool) {
	for _, e := range d.Benchmarks {
		if e.Name == name && (e.Pkg == pkg || e.Pkg == "") {
			return e, true
		}
	}
	return Entry{}, false
}

// benchLine matches e.g.
// "BenchmarkDispatchArith-8   471   469526 ns/op   79336 B/op   9176 allocs/op"
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([0-9.]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

// Parse converts `go test -bench -benchmem` text output into a document.
// Each entry takes its package from the `pkg:` line above it. With
// -count N the same benchmark of one package appears N times; the fastest
// run is kept — under one-sided scheduling noise the minimum is the best
// estimator of true cost (per the methodology papers this repo
// reproduces, wall-clock noise only ever adds time).
func Parse(r io.Reader) (*Doc, error) {
	doc := &Doc{}
	type key struct{ pkg, name string }
	index := map[key]int{}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		e := Entry{Pkg: pkg, Name: m[1]}
		e.Iterations, _ = strconv.ParseInt(m[2], 10, 64)
		e.NsPerOp, _ = strconv.ParseFloat(m[3], 64)
		if m[4] != "" {
			e.BytesPerOp, _ = strconv.ParseInt(m[4], 10, 64)
		}
		if m[5] != "" {
			e.AllocsPerOp, _ = strconv.ParseInt(m[5], 10, 64)
		}
		k := key{e.Pkg, e.Name}
		if i, ok := index[k]; ok {
			if e.NsPerOp < doc.Benchmarks[i].NsPerOp {
				doc.Benchmarks[i] = e
			}
			continue
		}
		index[k] = len(doc.Benchmarks)
		doc.Benchmarks = append(doc.Benchmarks, e)
	}
	return doc, sc.Err()
}

// ReadFile loads a document from disk.
func ReadFile(path string) (*Doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc := &Doc{}
	if err := json.Unmarshal(data, doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// Write emits the document as indented JSON to w.
func (d *Doc) Write(w io.Writer) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
