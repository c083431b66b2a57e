package minipy_test

import (
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/minipy"
	"repro/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite golden register disassembly files")

// lowerAll lowers a code object and every nested code object, returning
// them name-keyed for assertions.
func lowerAll(t *testing.T, code *minipy.Code) []*minipy.RCode {
	t.Helper()
	rc, err := minipy.LowerToRegister(code)
	if err != nil {
		t.Fatalf("lower %s: %v", code.Name, err)
	}
	out := []*minipy.RCode{&rc}
	for _, k := range code.Consts {
		if sub, ok := k.(*minipy.Code); ok {
			out = append(out, lowerAll(t, sub)...)
		}
	}
	return out
}

// TestLowerIsPCPreserving pins the core equivalence obligation: the default
// lowering is 1:1 — instruction i implements stack instruction i, carries
// its opcode as Src, its immediate as Arg, and its own index as Orig — so
// the simulated instruction stream is bit-identical by construction.
func TestLowerIsPCPreserving(t *testing.T) {
	for _, b := range workloads.Suite() {
		for _, opt := range []int{0, 2} {
			code, err := b.Compile()
			if err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			if err := minipy.Verify(code); err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			if opt > 0 {
				code, err = minipy.Optimize(code, opt, nil)
				if err != nil {
					t.Fatalf("%s: optimize: %v", b.Name, err)
				}
			}
			for _, rc := range lowerAll(t, code) {
				src := rc.Code
				if len(rc.Ops) != len(src.Ops) {
					t.Fatalf("%s/%s opt%d: %d register ops for %d stack ops",
						b.Name, src.Name, opt, len(rc.Ops), len(src.Ops))
				}
				for pc, ri := range rc.Ops {
					if int(ri.Orig) != pc {
						t.Fatalf("%s/%s opt%d pc %d: Orig = %d", b.Name, src.Name, opt, pc, ri.Orig)
					}
					if rc.Depth[pc] < 0 {
						continue // unreachable slot, lowered to RNOP
					}
					sins := src.Ops[pc]
					if ri.Src != sins.Op {
						t.Fatalf("%s/%s opt%d pc %d: Src %v for stack op %v",
							b.Name, src.Name, opt, pc, ri.Src, sins.Op)
					}
					if ri.Arg != sins.Arg {
						t.Fatalf("%s/%s opt%d pc %d: Arg %d for stack arg %d",
							b.Name, src.Name, opt, pc, ri.Arg, sins.Arg)
					}
				}
				if err := minipy.VerifyRegister(rc); err != nil {
					t.Fatalf("%s opt%d: %v", b.Name, opt, err)
				}
				if rc.NumRegs != rc.NumLocals+src.MaxStack {
					t.Fatalf("%s/%s opt%d: NumRegs %d, want locals %d + MaxStack %d",
						b.Name, src.Name, opt, rc.NumRegs, rc.NumLocals, src.MaxStack)
				}
			}
		}
	}
}

// elided returns the move-elided copy of rc, leaving rc as it was.
func elided(rc *minipy.RCode) *minipy.RCode {
	opt := *rc
	opt.Ops = slices.Clone(rc.Ops)
	minipy.ElideMoves(&opt)
	return &opt
}

// TestElideMovesVerifies lowers every workload, runs the A9 move-elision
// pass, and checks the result still verifies, shrinks, and keeps source-pc
// attribution intact.
func TestElideMovesVerifies(t *testing.T) {
	elidedSomething := false
	for _, b := range workloads.Suite() {
		code, err := b.Compile()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if err := minipy.Verify(code); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		for _, rc := range lowerAll(t, code) {
			opt := elided(rc)
			if !opt.Elided {
				t.Fatalf("%s/%s: ElideMoves did not mark the result", b.Name, rc.Code.Name)
			}
			if len(opt.Ops) > len(rc.Ops) {
				t.Fatalf("%s/%s: elision grew the code: %d -> %d ops",
					b.Name, rc.Code.Name, len(rc.Ops), len(opt.Ops))
			}
			if len(opt.Ops) < len(rc.Ops) {
				elidedSomething = true
			}
			if err := minipy.VerifyRegister(opt); err != nil {
				t.Fatalf("%s/%s: %v", b.Name, rc.Code.Name, err)
			}
			// The kept instructions cover every reachable source pc once,
			// in order.
			next := 0
			for _, ins := range opt.Ops {
				first, last := int(ins.Orig)-int(ins.Pre), int(ins.Orig)+int(ins.Post)
				if first != next || last >= len(rc.Code.Ops) {
					t.Fatalf("%s/%s: covers %d-%d after %d (of %d source ops)",
						b.Name, rc.Code.Name, first, last, next-1, len(rc.Code.Ops))
				}
				next = last + 1
			}
			if next != len(rc.Code.Ops) {
				t.Fatalf("%s/%s: covers source pcs up to %d of %d", b.Name, rc.Code.Name, next-1, len(rc.Code.Ops))
			}
		}
	}
	if !elidedSomething {
		t.Fatal("move elision removed no instruction across the whole suite")
	}
}

// TestVerifyRegisterRejects exercises the register verifier's failure
// modes: out-of-range registers, jump targets out of range (plain and
// packed), and quickened opcodes in freshly lowered code.
func TestVerifyRegisterRejects(t *testing.T) {
	const src = "def run(n):\n    i = 0\n    while i < n:\n        i = i + 1\n    return i\n"
	fresh := func(opt int) *minipy.RCode {
		code, err := minipy.CompileSource(src)
		if err != nil {
			t.Fatal(err)
		}
		if code, err = minipy.Optimize(code, opt, nil); err != nil {
			t.Fatal(err)
		}
		if err := minipy.Verify(code); err != nil {
			t.Fatal(err)
		}
		for _, k := range code.Consts {
			if fn, ok := k.(*minipy.Code); ok && fn.Name == "run" {
				rc, err := minipy.LowerToRegister(fn)
				if err != nil {
					t.Fatal(err)
				}
				if err := minipy.VerifyRegister(&rc); err != nil {
					t.Fatalf("opt %d: fresh lowering rejected: %v", opt, err)
				}
				return &rc
			}
		}
		t.Fatal("no run function")
		return nil
	}
	rc := fresh(0)
	rc.Ops[0].A = 99
	if err := minipy.VerifyRegister(rc); err == nil {
		t.Error("out-of-range register accepted")
	}
	for _, c := range []struct {
		opt int
		op  minipy.ROp
	}{{0, minipy.RopJump}, {2, minipy.RopBinaryJumpIfFalse}} {
		rc := fresh(c.opt)
		pc := slices.IndexFunc(rc.Ops, func(ins minipy.RInstr) bool { return ins.Op == c.op })
		if pc < 0 {
			t.Fatalf("opt %d: no %v in the lowered loop", c.opt, c.op)
		}
		rc.Ops[pc].SetTarget(1000)
		if err := minipy.VerifyRegister(rc); err == nil || !strings.Contains(err.Error(), "jump target 1000") {
			t.Errorf("opt %d: %v to pc 1000: got %v, want an error naming the target", c.opt, c.op, err)
		}
	}
	rc = fresh(0)
	rc.Ops[0].Op = minipy.RopBinaryII
	if err := minipy.VerifyRegister(rc); err == nil ||
		!strings.Contains(err.Error(), "quickened") {
		t.Errorf("quickened op in lowered code: got %v", err)
	}
}

// TestRegisterDisassembleGolden pins the register disassembly of fib —
// the default 1:1 lowering and the A9-elided variant — byte for byte.
func TestRegisterDisassembleGolden(t *testing.T) {
	b, ok := workloads.ByName("fib")
	if !ok {
		t.Fatal("no fib workload")
	}
	code, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if err := minipy.Verify(code); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, rc := range lowerAll(t, code) {
		sb.WriteString(rc.Disassemble())
		sb.WriteString(elided(rc).Disassemble())
	}
	got := sb.String()
	golden := filepath.Join("testdata", "fib.regdis.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("register disassembly drifted from %s (run with -update if intentional)\n--- got\n%s", golden, got)
	}
}
