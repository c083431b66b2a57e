package analysis_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/metrics"
	"testing"

	"repro/internal/analysis"
	"repro/internal/minipy"
	"repro/internal/vm"
)

// FuzzAnalyzeSource feeds arbitrary source text through the front end, the
// analyzer and the -opt 2 optimizer that the analyzer's facts drive:
//
//  1. CompileSource returns code or an error and never panics, and the
//     code it returns passes minipy.Verify;
//  2. Analyze never panics, two runs agree on the diagnostics and the
//     certificate JSON, and Check fails exactly when Errors() is non-empty;
//  3. when Check passes, the module (and run(), if defined) runs on the
//     interpreter at -opt 0 and at -opt 2 under a step budget, with a
//     SoundnessChecker built from the exact code that runs: no claim may
//     be violated, and both levels must raise or both return equal values.
//     Inputs that reach the step or depth limit are skipped.
//
// The seed corpus is every corpus() program, every defect program of the
// rule tests and the rebound-cell programs; plain `go test` runs only
// those.
func FuzzAnalyzeSource(f *testing.F) {
	for _, b := range corpus() {
		f.Add(b.Source)
	}
	for _, p := range analysis.LintGoldenDefects() {
		f.Add(p.Src)
	}
	for _, b := range reboundCell {
		f.Add(b.Source)
	}
	f.Fuzz(func(t *testing.T, src string) {
		code, err := minipy.CompileSource(src)
		if err != nil {
			return
		}
		if err := minipy.Verify(code); err != nil {
			t.Fatalf("compiled code fails verification: %v", err)
		}
		rep, err := analysis.Analyze(code)
		if err != nil {
			t.Fatalf("analyze: %v", err)
		}
		again, err := analysis.Analyze(code)
		if err != nil {
			t.Fatalf("second analyze: %v", err)
		}
		if a, b := fmt.Sprint(rep.Diagnostics), fmt.Sprint(again.Diagnostics); a != b {
			t.Fatalf("diagnostics differ between runs:\n%s\n%s", a, b)
		}
		if a, b := certJSONOf(t, rep), certJSONOf(t, again); !bytes.Equal(a, b) {
			t.Fatalf("certificates differ between runs:\n%s\n%s", a, b)
		}
		checkErr := analysis.Check(code)
		if (checkErr != nil) != (len(rep.Errors()) > 0) {
			t.Fatalf("Check = %v but Errors() = %v", checkErr, rep.Errors())
		}
		if checkErr != nil {
			return
		}
		opt, err := minipy.Optimize(code, 2, analysis.OptimizationFacts(code))
		if err != nil {
			t.Fatalf("optimize -opt 2: %v", err)
		}
		base, ok := fuzzRun(t, code)
		if !ok {
			return
		}
		if got, ok := fuzzRun(t, opt); ok && got != base {
			t.Fatalf("-opt 2 %s, -opt 0 %s", got, base)
		}
	})
}

func certJSONOf(t *testing.T, rep *analysis.Report) []byte {
	t.Helper()
	buf, err := json.Marshal(rep.Certificate)
	if err != nil {
		t.Fatalf("marshal certificate: %v", err)
	}
	return buf
}

// fuzzRun runs the module and run(), if defined, on the interpreter under
// a SoundnessChecker and returns the outcome: "raise", or the repr of the
// values returned. ok is false when the run reached the step or depth
// limit or was stopped before an oversized allocation.
func fuzzRun(t *testing.T, code *minipy.Code) (outcome string, ok bool) {
	t.Helper()
	rep, err := analysis.Analyze(code)
	if err != nil {
		t.Fatalf("analyze the code that runs: %v", err)
	}
	g := &allocGuard{SoundnessChecker: analysis.NewSoundnessChecker(rep.Facts())}
	in := vm.New(vm.Config{Mode: vm.ModeInterp, Tracer: g, MaxSteps: 100_000, MaxDepth: 100})
	g.Attach(in)
	defer func() {
		if r := recover(); r != nil {
			if r != errOversized {
				panic(r)
			}
			ok = false
		}
	}()
	var results []string
	res, err := in.RunModule(code)
	if err == nil {
		results = append(results, res.Repr())
		if _, defined := in.Globals["run"]; defined {
			res, err = in.CallGlobal("run")
			if err == nil {
				results = append(results, res.Repr())
			}
		}
	}
	for _, v := range g.Violations() {
		t.Errorf("soundness violation: %s", v)
	}
	var re *vm.RuntimeError
	if errors.As(err, &re) && (re.Kind == "TimeoutError" || re.Kind == "RecursionError") {
		return "", false
	}
	if err != nil {
		return "raise", true
	}
	return fmt.Sprint(results), true
}

// allocGuard is a SoundnessChecker that also stops a run before it
// allocates past fuzzing scale: the step budget bounds time, but one
// `seq * n`, `seq + seq` or list(range(n)) can ask for gigabytes, and so
// can many smaller allocations that stay live.
type allocGuard struct {
	*analysis.SoundnessChecker
	stack []minipy.Value // the operand stack the next op sees
	ops   int
}

var errOversized = errors.New("allocation past fuzzing scale")

const (
	maxFuzzElems     = 1 << 16 // per op
	maxFuzzHeapBytes = 1 << 28 // per run, polled every 1024 ops
)

func (g *allocGuard) OnValue(code *minipy.Code, pc int, op minipy.Op, stack []minipy.Value) {
	g.SoundnessChecker.OnValue(code, pc, op, stack)
	g.stack = stack
}

func (g *allocGuard) OnOp(code *minipy.Code, pc int, op minipy.Op, cycles uint64) {
	g.SoundnessChecker.OnOp(code, pc, op, cycles)
	if g.ops++; g.ops%1024 == 0 {
		heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		if metrics.Read(heap); heap[0].Value.Uint64() > maxFuzzHeapBytes {
			panic(errOversized)
		}
	}
	n, arg := len(g.stack), int(code.Ops[pc].Arg)
	if op == minipy.OpBinaryJumpIfFalse {
		op, arg = minipy.OpBinary, arg&0xF
	}
	switch {
	case op == minipy.OpBinary && n >= 2:
		a, b := g.stack[n-2], g.stack[n-1]
		switch minipy.BinOpCode(arg) {
		case minipy.BinMul:
			if _, ok := a.(minipy.Int); ok {
				a, b = b, a
			}
			if k, ok := b.(minipy.Int); ok && k > 0 && footprint(a) > 0 &&
				int64(k) > maxFuzzElems/footprint(a) {
				panic(errOversized)
			}
		case minipy.BinAdd:
			if footprint(a)+footprint(b) > maxFuzzElems {
				panic(errOversized)
			}
		}
	case op == minipy.OpCall:
		for _, v := range g.stack[max(0, n-arg-1):] {
			if footprint(v) > maxFuzzElems {
				panic(errOversized)
			}
		}
	}
}

// footprint is how many elements an op that copies or expands v may
// allocate: a sequence's length plus the lengths of the strings it holds,
// or a range's length.
func footprint(v minipy.Value) int64 {
	var items []minipy.Value
	switch s := v.(type) {
	case minipy.Str:
		return int64(len(s))
	case *minipy.RangeVal:
		return s.Len()
	case *minipy.List:
		items = s.Items
	case *minipy.Tuple:
		items = s.Items
	default:
		return 0
	}
	n := int64(len(items))
	for _, it := range items {
		if s, ok := it.(minipy.Str); ok {
			n += int64(len(s))
		}
	}
	return n
}
