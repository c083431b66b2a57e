// Package vm provides the two MiniPy execution engines studied by the
// methodology: a CPython-like bytecode interpreter and a simulated tracing
// JIT. Both execute the same bytecode with identical semantics; they differ
// only in their cycle-accounting cost models, which is exactly what the
// benchmarking methodology measures.
package vm

import "fmt"

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

// budgetErr is the step-budget error for an op on line, the first op the
// budget did not cover. The line is final: failAt never stamps a budget
// error, so a line of 0 stays none.
func budgetErr(line int32) *RuntimeError {
	return &RuntimeError{Kind: "TimeoutError", Msg: "step budget exhausted", Line: int(line)}
}

func memoryErr(format string, args ...interface{}) *RuntimeError {
	return &RuntimeError{Kind: "MemoryError", Msg: fmt.Sprintf(format, args...)}
}

func abortErr(format string, args ...interface{}) *RuntimeError {
	return &RuntimeError{Kind: "AbortError", Msg: fmt.Sprintf(format, args...)}
}
