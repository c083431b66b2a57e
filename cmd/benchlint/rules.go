package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
)

// Finding is a single methodology-invariant violation in the Go tree.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Rule, f.Msg)
}

// Directive comments recognized by the linter:
//
//	//benchlint:allow clock   — sanctions a wall-clock call on the same or
//	                            the following source line
//	//benchlint:allow uncheckederr — sanctions a dropped error return on the
//	                            same or the following source line (deliberate
//	                            drops on already-failing cleanup paths)
//	benchlint:hotpath         — in a function's doc comment, marks it as
//	                            part of the interpreter dispatch loop, where
//	                            allocation-prone stdlib calls are forbidden
//	benchlint:allow boxedhot  — in a hot-path function's doc comment,
//	                            sanctions interface-typed minipy.Value in its
//	                            signature (a genuine escape point: the boxing
//	                            converters themselves, generic fallbacks on
//	                            already-boxed operands)
const (
	allowClockDirective     = "benchlint:allow clock"
	allowUncheckedDirective = "benchlint:allow uncheckederr"
	allowBoxedhotDirective  = "benchlint:allow boxedhot"
	hotpathDirective        = "benchlint:hotpath"
)

// minipyValuePath is the import path of the boxed value package. A
// hot-path function whose signature traffics in this interface type forces
// its callers to box tagged words; the boxedhot rule keeps the tagged
// representation from silently leaking back into boxed form.
const minipyValuePath = "repro/internal/minipy"

// hotpathForbidden are packages whose direct calls inside a hot-path
// function distort measurement: fmt and log allocate and acquire locks,
// os and time issue syscalls, math/rand takes a global lock. A hot-path
// function that needs one of these is a methodology bug, not a lint gap.
var hotpathForbidden = map[string]bool{
	"fmt":       true,
	"log":       true,
	"os":        true,
	"time":      true,
	"math/rand": true,
}

// lintFile parses one Go source file and applies every rule. The linter is
// purely syntactic (go/ast, no type checker): it resolves package
// references through the file's import table, which is exact for the
// qualified-call patterns the rules target.
func lintFile(fset *token.FileSet, path string, src []byte) ([]Finding, error) {
	file, err := parser.ParseFile(fset, path, src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	l := &linter{
		fset:           fset,
		imports:        importTable(file),
		allowed:        directiveLines(fset, file, allowClockDirective),
		allowUnchecked: directiveLines(fset, file, allowUncheckedDirective),
	}
	l.file(file)
	return l.findings, nil
}

type linter struct {
	fset           *token.FileSet
	imports        map[string]string // local identifier -> import path
	allowed        map[int]bool      // lines sanctioned by benchlint:allow clock
	allowUnchecked map[int]bool      // lines sanctioned by benchlint:allow uncheckederr
	findings       []Finding
}

func (l *linter) report(pos token.Pos, rule, format string, args ...interface{}) {
	l.findings = append(l.findings, Finding{
		Pos:  l.fset.Position(pos),
		Rule: rule,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// importTable maps each file-local package identifier to its import path.
// Unnamed imports use the final path element (import "math/rand" binds
// "rand"); dot and blank imports are ignored — neither produces the
// qualified selector calls the rules match.
func importTable(file *ast.File) map[string]string {
	t := make(map[string]string)
	for _, imp := range file.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		name := path
		if i := strings.LastIndexByte(path, '/'); i >= 0 {
			name = path[i+1:]
		}
		if imp.Name != nil {
			name = imp.Name.Name
			if name == "." || name == "_" {
				continue
			}
		}
		t[name] = path
	}
	return t
}

// directiveLines collects the source lines sanctioned by an allow
// directive. A directive covers its own line (trailing comment) and the
// line after it (comment above the call).
func directiveLines(fset *token.FileSet, file *ast.File, directive string) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.Contains(c.Text, directive) {
				continue
			}
			line := fset.Position(c.End()).Line
			lines[line] = true
			lines[line+1] = true
		}
	}
	return lines
}

func (l *linter) file(file *ast.File) {
	// Rule wallclock + globalrand apply file-wide.
	ast.Inspect(file, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CallExpr:
			pkg, fn, ok := l.qualifiedCall(node)
			if !ok {
				return true
			}
			l.checkWallclock(node, pkg, fn)
			l.checkGlobalRand(node, pkg, fn)
		case *ast.ExprStmt:
			if call, ok := node.X.(*ast.CallExpr); ok {
				l.checkUncheckedErr(call, false)
			}
		case *ast.DeferStmt:
			l.checkUncheckedErr(node.Call, true)
		}
		return true
	})

	// Rule hotpath applies inside functions whose doc comment carries the
	// marker, including any function literals they contain.
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Doc == nil || fd.Body == nil {
			continue
		}
		doc := fd.Doc.Text()
		if !strings.Contains(doc, hotpathDirective) {
			continue
		}
		l.checkHotpath(fd.Name.Name, fd.Body)
		if !strings.Contains(doc, allowBoxedhotDirective) {
			l.checkBoxedhot(fd)
		}
	}
}

// qualifiedCall matches pkg.Fn(...) where pkg is an identifier bound by an
// import, and returns the import path and function name.
func (l *linter) qualifiedCall(call *ast.CallExpr) (pkg, fn string, ok bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", "", false
	}
	// A local variable shadowing an import name is indistinguishable
	// syntactically; Obj != nil means the parser resolved the identifier to
	// a local declaration, so it is not a package reference.
	if id.Obj != nil {
		return "", "", false
	}
	path, ok := l.imports[id.Name]
	if !ok {
		return "", "", false
	}
	return path, sel.Sel.Name, true
}

// checkWallclock enforces the sanctioned-clock invariant: every wall-clock
// read must be an annotated, deliberate site. Unannotated time.Now calls
// scattered through the harness are how accidental timer misuse (mixed
// clocks, per-iteration syscalls) creeps into measurements.
func (l *linter) checkWallclock(call *ast.CallExpr, pkg, fn string) {
	if pkg != "time" {
		return
	}
	switch fn {
	case "Now", "Since", "Until":
	default:
		return
	}
	if l.allowed[l.fset.Position(call.Pos()).Line] {
		return
	}
	l.report(call.Pos(), "wallclock",
		"time.%s outside a sanctioned clock site (annotate with //%s if deliberate)",
		fn, allowClockDirective)
}

// checkGlobalRand forbids the process-global math/rand source: it is
// seeded implicitly, shared across goroutines behind a lock, and makes
// runs irreproducible. Constructing an explicit source (rand.New,
// rand.NewSource, rand.NewZipf) is fine, as are methods on the resulting
// *rand.Rand — those are calls on a variable, not on the package.
func (l *linter) checkGlobalRand(call *ast.CallExpr, pkg, fn string) {
	if pkg != "math/rand" && pkg != "math/rand/v2" {
		return
	}
	switch fn {
	case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
		return
	}
	l.report(call.Pos(), "globalrand",
		"%s.%s uses the global rand source; construct an explicit seeded source instead",
		pkg, fn)
}

// uncheckedOSFuncs are the os package's write-path functions: each returns
// only an error, so calling one in statement position silently swallows
// the failure — a journal rotation that didn't happen, a result file that
// was never renamed into place.
var uncheckedOSFuncs = map[string]bool{
	"Remove": true, "RemoveAll": true, "Rename": true, "Mkdir": true,
	"MkdirAll": true, "WriteFile": true, "Chmod": true, "Truncate": true,
	"Setenv": true, "Unsetenv": true,
}

// uncheckedMethods are the method names of the repository's durable-write
// surface — the WAL journals (Append/Rotate/Close) and buffered writers
// (Flush/Sync) — plus Close itself, whose error is the only place a
// deferred final write can fail. The match is syntactic (any receiver),
// which is exactly the point: every dropped error on a name in this set
// deserves either handling or an explicit //benchlint:allow uncheckederr
// with a reason.
var uncheckedMethods = map[string]bool{
	"Append": true, "Rotate": true, "Close": true, "Sync": true, "Flush": true,
}

// checkUncheckedErr enforces the durable-write invariant: error returns
// from WAL and os write paths may not be dropped. A statement-
// position call of a listed os function or write-surface method — bare or
// deferred — is flagged unless the line carries the allow directive.
// Checked calls (`if err := j.Append(...)`) never match: the rule only
// sees calls whose entire statement is the call itself.
func (l *linter) checkUncheckedErr(call *ast.CallExpr, deferred bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := sel.Sel.Name
	if pkg, fn, ok := l.qualifiedCall(call); ok {
		if pkg != "os" || !uncheckedOSFuncs[fn] {
			return
		}
	} else if !uncheckedMethods[name] {
		return
	}
	if l.allowUnchecked[l.fset.Position(call.Pos()).Line] {
		return
	}
	how := "call"
	if deferred {
		how = "deferred call"
	}
	l.report(call.Pos(), "uncheckederr",
		"%s of %s drops its error return (handle it, or annotate //%s with the reason)",
		how, name, allowUncheckedDirective)
}

// checkBoxedhot flags plain minipy.Value parameters and results on a
// hot-path function's signature. The register tier keeps small values as
// tagged words (rslot); an interface-typed Value in a hot-path signature
// forces every call to box — exactly the allocation the tier exists to
// avoid. The match is the bare selector type only: a []minipy.Value frame
// slice or *minipy.List receiver is a container of already-boxed values,
// not a boxing site. Genuine escape points (the boxing converters, the
// generic fallback on boxed operands) carry benchlint:allow boxedhot in
// their doc comment with the reason.
func (l *linter) checkBoxedhot(fd *ast.FuncDecl) {
	check := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			sel, ok := field.Type.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Value" {
				continue
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || id.Obj != nil || l.imports[id.Name] != minipyValuePath {
				continue
			}
			l.report(field.Type.Pos(), "boxedhot",
				"hot-path function %s has an interface-typed minipy.Value %s; pass a tagged word, or annotate the doc comment with %s and the reason",
				fd.Name.Name, what, allowBoxedhotDirective)
		}
	}
	check(fd.Type.Params, "parameter")
	check(fd.Type.Results, "result")
}

// checkHotpath walks the body of a benchlint:hotpath function and flags
// calls into packages that allocate, lock, or syscall, plus fresh map
// allocations — make(map[...]) and map composite literals. A map allocated
// per dispatch hits the runtime allocator and defeats the register
// allocation the loop depends on; indexing an existing map is fine, and
// cold map-building code belongs in an unmarked helper (see the vm's
// buildClass, extracted from the dispatch loop for exactly this reason).
func (l *linter) checkHotpath(name string, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CallExpr:
			if id, ok := node.Fun.(*ast.Ident); ok && id.Name == "make" && id.Obj == nil {
				if len(node.Args) > 0 {
					if _, isMap := node.Args[0].(*ast.MapType); isMap {
						l.report(node.Pos(), "hotpathmap",
							"make(map) inside hot-path function %s (allocates in the dispatch loop; hoist or extract to a cold helper)",
							name)
						return true
					}
				}
			}
			pkg, fn, ok := l.qualifiedCall(node)
			if !ok || !hotpathForbidden[pkg] {
				return true
			}
			l.report(node.Pos(), "hotpath",
				"%s.%s inside hot-path function %s (allocates/locks/syscalls in the dispatch loop)",
				pkg, fn, name)
		case *ast.CompositeLit:
			if _, isMap := node.Type.(*ast.MapType); isMap {
				l.report(node.Pos(), "hotpathmap",
					"map literal inside hot-path function %s (allocates in the dispatch loop; hoist or extract to a cold helper)",
					name)
			}
		}
		return true
	})
}
