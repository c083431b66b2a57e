// Command benchlint is a repository-local vet pass that enforces the
// measurement-methodology invariants the harness depends on. It is built
// on go/ast alone (no external analysis frameworks) and checks five
// rules across the Go tree:
//
//   - wallclock: time.Now / time.Since / time.Until may appear only at
//     sanctioned clock sites annotated //benchlint:allow clock. Stray
//     wall-clock reads are how mixed clock domains and per-iteration
//     syscalls contaminate timing data.
//   - hotpath: functions whose doc comment contains benchlint:hotpath
//     (the interpreter dispatch loop and its helpers) must not call into
//     fmt, log, os, time, or math/rand — all of which allocate, lock, or
//     syscall and would perturb the very code being measured.
//   - boxedhot: hot-path functions (the same benchlint:hotpath marker)
//     must not take or return a bare interface-typed minipy.Value where a
//     tagged word suffices — every such signature forces callers to box,
//     which is exactly the allocation the register tier exists to avoid.
//     Containers of boxed values ([]minipy.Value) are fine; genuine escape
//     points carry benchlint:allow boxedhot in the doc comment.
//   - globalrand: the process-global math/rand source is forbidden
//     everywhere; randomness must flow from explicitly seeded sources so
//     experiments replay bit-identically.
//   - uncheckederr: statement-position calls that drop error returns from
//     the durable-write surface — os write-path functions (Remove, Rename,
//     WriteFile, ...) and WAL and writer methods (Append, Rotate, Close,
//     Sync, Flush), bare or deferred — must handle the error or carry
//     //benchlint:allow uncheckederr with a reason. A campaign journal
//     whose rotation failed silently is how crash recovery loses data.
//
// Usage:
//
//	benchlint ./cmd ./internal ./examples
//
// Arguments are files or directories (walked recursively; testdata and
// hidden directories and _test.go files are skipped). Exit status follows
// the repository taxonomy: 1 if any finding is reported, 2 on usage
// errors, 3 when a file cannot be read or parsed.
package main

import (
	"fmt"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/exitcode"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: benchlint <file-or-dir> ...")
		os.Exit(exitcode.Usage)
	}
	fset := token.NewFileSet()
	var all []Finding
	for _, arg := range os.Args[1:] {
		files, err := collectGoFiles(arg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchlint: %v\n", err)
			os.Exit(exitcode.Infra)
		}
		for _, path := range files {
			src, err := os.ReadFile(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchlint: %v\n", err)
				os.Exit(exitcode.Infra)
			}
			fs, err := lintFile(fset, path, src)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchlint: %v\n", err)
				os.Exit(exitcode.Infra)
			}
			all = append(all, fs...)
		}
	}
	for _, f := range all {
		fmt.Println(f)
	}
	if len(all) > 0 {
		fmt.Fprintf(os.Stderr, "benchlint: %d finding(s)\n", len(all))
		os.Exit(exitcode.Finding)
	}
}

// collectGoFiles expands an argument into the list of Go files to lint.
// Test files are exempt (tests may time themselves freely), as is
// anything under a testdata or hidden directory — fixtures include
// deliberate violations.
func collectGoFiles(arg string) ([]string, error) {
	info, err := os.Stat(arg)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return []string{arg}, nil
	}
	var files []string
	err = filepath.WalkDir(arg, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if name == "testdata" || (strings.HasPrefix(name, ".") && path != arg) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		files = append(files, path)
		return nil
	})
	return files, err
}
