// Package vm provides the two MiniPy execution engines studied by the
// methodology: a CPython-like bytecode interpreter and a simulated tracing
// JIT. Both execute the same bytecode with identical semantics; they differ
// only in their cycle-accounting cost models, which is exactly what the
// benchmarking methodology measures.
package vm

import (
	"errors"
	"fmt"
)

// RuntimeError is a MiniPy-level execution error (TypeError, IndexError...).
type RuntimeError struct {
	Kind string // "TypeError", "IndexError", "KeyError", "NameError", ...
	Msg  string
	Line int
}

func (e *RuntimeError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("minipy: %s at line %d: %s", e.Kind, e.Line, e.Msg)
	}
	return fmt.Sprintf("minipy: %s: %s", e.Kind, e.Msg)
}

func typeErr(format string, args ...interface{}) *RuntimeError {
	return &RuntimeError{Kind: "TypeError", Msg: fmt.Sprintf(format, args...)}
}

func valueErr(format string, args ...interface{}) *RuntimeError {
	return &RuntimeError{Kind: "ValueError", Msg: fmt.Sprintf(format, args...)}
}

func indexErr(format string, args ...interface{}) *RuntimeError {
	return &RuntimeError{Kind: "IndexError", Msg: fmt.Sprintf(format, args...)}
}

func keyErr(format string, args ...interface{}) *RuntimeError {
	return &RuntimeError{Kind: "KeyError", Msg: fmt.Sprintf(format, args...)}
}

func nameErr(format string, args ...interface{}) *RuntimeError {
	return &RuntimeError{Kind: "NameError", Msg: fmt.Sprintf(format, args...)}
}

func attrErr(format string, args ...interface{}) *RuntimeError {
	return &RuntimeError{Kind: "AttributeError", Msg: fmt.Sprintf(format, args...)}
}

func zeroDivErr() *RuntimeError {
	return &RuntimeError{Kind: "ZeroDivisionError", Msg: "division by zero"}
}

func budgetErr() *RuntimeError {
	return &RuntimeError{Kind: "TimeoutError", Msg: "step budget exhausted"}
}

func abortErr(format string, args ...interface{}) *RuntimeError {
	return &RuntimeError{Kind: "AbortError", Msg: fmt.Sprintf(format, args...)}
}

// IsBudgetError reports whether err is a resource-budget violation: the
// step-budget guard ("TimeoutError") or an abort on a done Config.Context
// ("AbortError"). The harness supervisor uses this to classify an
// invocation as hung rather than wrong.
func IsBudgetError(err error) bool {
	var re *RuntimeError
	if !errors.As(err, &re) {
		return false
	}
	return re.Kind == "TimeoutError" || re.Kind == "AbortError"
}
