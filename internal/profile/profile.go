// Package profile is the MiniPy VM profiler: it implements vm.Tracer and
// attributes simulated execution cost (cycles, ops) to source lines,
// functions, and call stacks. Because it consumes the engine's own cost
// accounting, its totals reconcile exactly with the run's measured
// instruction cycles — the property the CLI's -profile command asserts —
// turning "this workload is slow" into "line 12 of nbody is 61% of the
// cycles".
//
// Three views are produced:
//
//   - a flat per-line table (Annotate, and FuncCosts by function), cost
//     attributed to code.Lines[pc];
//   - a per-opcode histogram (OpCosts), the dynamic opcode mix by cost;
//   - collapsed call stacks (WriteCollapsed), one "f;g;h cycles" line per
//     unique stack, the folded format flamegraph.pl, speedscope, and
//     pprof's folded importers consume.
//
// The profiler is passive: it never alters the simulation, and a nil
// *Profiler (or a nil vm.Tracer) leaves the engine hot path untouched.
package profile

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/minipy"
)

// LineCost is the flat (self) cost attributed to one source line of one
// function.
type LineCost struct {
	Func   string
	Line   int
	Ops    uint64
	Cycles uint64
}

// OpCost is the dynamic cost of one opcode across the profiled run.
type OpCost struct {
	Op     minipy.Op
	Count  uint64
	Cycles uint64
}

// StackCost is the flat cost of one unique call stack ("<module>;f;g").
type StackCost struct {
	Stack  string
	Cycles uint64
}

type lineKey struct {
	fn   string
	line int32
}

// Profiler aggregates per-line, per-opcode, and per-stack cost. It is not
// safe for concurrent use: attach one profiler per VM invocation, or run
// invocations sequentially (the CLI does the latter).
type Profiler struct {
	byLine  map[lineKey]*LineCost
	byStack map[string]uint64
	byOp    [minipy.NumOps]OpCost

	// sigs[i] is the collapsed signature of the stack up to depth i, so
	// OnOp attributes to the current stack with one slice index.
	sigs []string

	ops    uint64
	cycles uint64
}

// New returns an empty profiler.
func New() *Profiler {
	p := &Profiler{}
	p.Reset()
	return p
}

// Reset clears all aggregates (the CLI resets after module setup so the
// profile covers only the measured run() call). The frame stack must be
// empty when Reset is called — i.e. between top-level calls.
func (p *Profiler) Reset() {
	p.byLine = map[lineKey]*LineCost{}
	p.byStack = map[string]uint64{}
	p.byOp = [minipy.NumOps]OpCost{}
	p.sigs = p.sigs[:0]
	p.ops, p.cycles = 0, 0
}

// OnEnter implements vm.Tracer.
func (p *Profiler) OnEnter(code *minipy.Code) {
	if len(p.sigs) == 0 {
		p.sigs = append(p.sigs, code.Name)
		return
	}
	p.sigs = append(p.sigs, p.sigs[len(p.sigs)-1]+";"+code.Name)
}

// OnExit implements vm.Tracer.
func (p *Profiler) OnExit(code *minipy.Code) {
	if n := len(p.sigs); n > 0 {
		p.sigs = p.sigs[:n-1]
	}
}

// OnOp implements vm.Tracer: attributes the op's charged cycles to its
// source line, opcode, and current call stack.
func (p *Profiler) OnOp(code *minipy.Code, pc int, op minipy.Op, cycles uint64) {
	p.ops++
	p.cycles += cycles
	p.byOp[op].Op = op
	p.byOp[op].Count++
	p.byOp[op].Cycles += cycles

	line := int32(0)
	if pc < len(code.Lines) {
		line = code.Lines[pc]
	}
	k := lineKey{fn: code.Name, line: line}
	lc, ok := p.byLine[k]
	if !ok {
		lc = &LineCost{Func: code.Name, Line: int(line)}
		p.byLine[k] = lc
	}
	lc.Ops++
	lc.Cycles += cycles

	if n := len(p.sigs); n > 0 {
		p.byStack[p.sigs[n-1]] += cycles
	}
}

// Total returns the profiled op and cycle totals. Cycles equals the
// engine's Counters.Instructions delta over the profiled region — and, when
// no Probe is attached and the engine is the interpreter, the full
// Counters.Cycles delta, making reconciliation exact.
func (p *Profiler) Total() (ops, cycles uint64) { return p.ops, p.cycles }

// flat returns per-line costs sorted by descending cycles (function name,
// then line number break ties, so output is deterministic).
func (p *Profiler) flat() []LineCost {
	out := make([]LineCost, 0, len(p.byLine))
	for _, lc := range p.byLine {
		out = append(out, *lc)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		if out[i].Func != out[j].Func {
			return out[i].Func < out[j].Func
		}
		return out[i].Line < out[j].Line
	})
	return out
}

// OpCosts returns the dynamic opcode histogram sorted by descending
// cycles, ties broken by opcode order.
func (p *Profiler) OpCosts() []OpCost {
	out := make([]OpCost, 0, 16)
	for _, oc := range p.byOp {
		if oc.Count > 0 {
			out = append(out, oc)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		return out[i].Op < out[j].Op
	})
	return out
}

// Stacks returns the per-stack flat costs sorted by stack string, the
// deterministic order WriteCollapsed emits.
func (p *Profiler) Stacks() []StackCost {
	out := make([]StackCost, 0, len(p.byStack))
	for sig, cyc := range p.byStack {
		out = append(out, StackCost{Stack: sig, Cycles: cyc})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stack < out[j].Stack })
	return out
}

// WriteCollapsed emits the folded-stack format ("a;b;c 1234" per line)
// consumed by flamegraph.pl, speedscope, and pprof's folded-profile
// importers.
func (p *Profiler) WriteCollapsed(w io.Writer) error {
	for _, sc := range p.Stacks() {
		if _, err := fmt.Fprintf(w, "%s %d\n", sc.Stack, sc.Cycles); err != nil {
			return err
		}
	}
	return nil
}

// FuncCosts aggregates the flat table by function, sorted by descending
// cycles (name breaks ties).
func (p *Profiler) FuncCosts() []LineCost {
	agg := map[string]*LineCost{}
	for _, lc := range p.byLine {
		fc, ok := agg[lc.Func]
		if !ok {
			fc = &LineCost{Func: lc.Func, Line: 0}
			agg[fc.Func] = fc
		}
		fc.Ops += lc.Ops
		fc.Cycles += lc.Cycles
	}
	out := make([]LineCost, 0, len(agg))
	for _, fc := range agg {
		out = append(out, *fc)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		return out[i].Func < out[j].Func
	})
	return out
}

// Annotate maps the flat per-line costs onto the workload source, returning
// one entry per line of src that has attributed cost. Lines are 1-based, as
// the compiler's line table records them.
type AnnotatedLine struct {
	Line   int
	Source string
	Ops    uint64
	Cycles uint64
}

// Annotate joins the profile against the source text. Functions share the
// module's line numbering (MiniPy compiles one file), so per-line costs
// from all code objects merge onto the same source lines.
func (p *Profiler) Annotate(src string) []AnnotatedLine {
	perLine := map[int]*AnnotatedLine{}
	for _, lc := range p.byLine {
		if lc.Line <= 0 {
			continue
		}
		al, ok := perLine[lc.Line]
		if !ok {
			al = &AnnotatedLine{Line: lc.Line}
			perLine[lc.Line] = al
		}
		al.Ops += lc.Ops
		al.Cycles += lc.Cycles
	}
	lines := strings.Split(src, "\n")
	out := make([]AnnotatedLine, 0, len(perLine))
	for ln, al := range perLine {
		if ln-1 < len(lines) {
			al.Source = strings.TrimRight(lines[ln-1], " \t")
		}
		out = append(out, *al)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Line < out[j].Line })
	return out
}
