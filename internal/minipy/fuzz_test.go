package minipy_test

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/minipy"
	"repro/internal/workloads"
)

// A fuzz input is one code object, optionally followed by one nested code
// object in the same form without a nested object of its own:
//
//	NumParams, #LocalNames, #Names, #FreeNames      one byte each
//	#CellLocals, then each slot                     one byte each
//	#Consts, then each kind                         one byte each: 0 None,
//	                                                1 an int, 2 the nested code
//	lines                                           0: one per op; n: n-1 entries
//	#Ops                                            uint16 LE
//	each op                                         op byte, int32 LE Arg
//	has nested (top level only)                     one byte, 0 for none
//
// A short input reads as zeros from where it ends.

type fuzzReader []byte

func (r *fuzzReader) next(n int) []byte {
	var b [4]byte
	k := copy(b[:n], *r)
	*r = (*r)[k:]
	return b[:n]
}

func (r *fuzzReader) byte() int { return int(r.next(1)[0]) }

func decodeFuzzCode(r *fuzzReader, nested bool) *minipy.Code {
	names := func(prefix string) []string {
		out := make([]string, r.byte())
		for i := range out {
			out[i] = fmt.Sprintf("%s%d", prefix, i)
		}
		return out
	}
	c := &minipy.Code{Name: "fuzz", IsModule: !nested, NumParams: r.byte()}
	if nested {
		c.Name = "fuzz_nested"
	}
	c.LocalNames, c.Names, c.FreeNames = names("l"), names("n"), names("f")
	for range r.byte() {
		c.CellLocals = append(c.CellLocals, r.byte())
	}
	kinds := make([]int, r.byte())
	for i := range kinds {
		kinds[i] = r.byte()
	}
	lines := r.byte()
	for n := int(binary.LittleEndian.Uint16(r.next(2))); n > 0 && len(*r) > 0; n-- {
		op := minipy.Op(r.byte())
		c.Ops = append(c.Ops, minipy.Instr{Op: op, Arg: int32(binary.LittleEndian.Uint32(r.next(4)))})
	}
	c.Lines = make([]int32, len(c.Ops))
	if lines > 0 {
		c.Lines = make([]int32, lines-1)
	}
	var sub *minipy.Code
	if !nested && r.byte() != 0 {
		sub = decodeFuzzCode(r, true)
	}
	c.Consts = make([]minipy.Value, len(kinds))
	for i, k := range kinds {
		c.Consts[i] = minipy.None
		switch {
		case k == 1:
			c.Consts[i] = minipy.IntValue(int64(i))
		case k == 2 && sub != nil:
			c.Consts[i] = sub
		}
	}
	return c
}

// encodeFuzzCode writes c in the fuzz input form, with c's first nested
// code object (if any) as the nested one at the top level. Every nested
// code constant encodes as that one object.
func encodeFuzzCode(c *minipy.Code, nested bool) []byte {
	u8 := func(n int) byte { return byte(min(n, 255)) }
	out := []byte{u8(c.NumParams), u8(len(c.LocalNames)), u8(len(c.Names)), u8(len(c.FreeNames)),
		u8(len(c.CellLocals))}
	for _, slot := range c.CellLocals {
		out = append(out, u8(slot))
	}
	out = append(out, u8(len(c.Consts)))
	var sub *minipy.Code
	for _, k := range c.Consts {
		switch k := k.(type) {
		case *minipy.Code:
			out = append(out, 2)
			if sub == nil {
				sub = k
			}
		case minipy.NoneType:
			out = append(out, 0)
		default:
			out = append(out, 1)
		}
	}
	out = append(out, 0)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(c.Ops)))
	for _, ins := range c.Ops {
		out = binary.LittleEndian.AppendUint32(append(out, byte(ins.Op)), uint32(ins.Arg))
	}
	if !nested {
		if sub == nil {
			return append(out, 0)
		}
		out = append(append(out, 1), encodeFuzzCode(sub, true)...)
	}
	return out
}

// oversizedFrame decodes to LOAD_LOCAL_PAIR; UNPACK 808464432; JUMP 2: a
// balanced stack 808,464,433 operands deep, a frame the VM would try to
// allocate (about 26 GB) before running its first op.
var oversizedFrame = []byte("0000\x00\x0500000\x0000# 0\x00\x00\"0000\r\x02\x00\x00\x000000000000000000")

// TestVerifyRejectsOversizedFrame holds Verify to its frame bound. The
// code is never run.
func TestVerifyRejectsOversizedFrame(t *testing.T) {
	r := fuzzReader(oversizedFrame)
	code := decodeFuzzCode(&r, false)
	if len(code.Ops) < 2 || code.Ops[1] != (minipy.Instr{Op: minipy.OpUnpack, Arg: 808464432}) {
		t.Fatalf("the input no longer decodes to the oversized UNPACK:\n%s", code.Disassemble())
	}
	if err := minipy.Verify(code); err == nil || !strings.Contains(err.Error(), "registers") {
		t.Fatalf("Verify = %v, want the frame refused", err)
	}
}

// FuzzVerify decodes a byte string into a small code object and holds the
// verifiers and the lowering to their contract: no input panics Verify,
// LowerToRegister, ElideMoves or VerifyRegister; every code object of an
// input Verify accepts lowers; and every lowering VerifyRegister accepts,
// plain and move-elided. It does not run what Verify accepts. The seeds
// are the inventory programs at -opt 0 and -opt 2, and oversizedFrame.
func FuzzVerify(f *testing.F) {
	f.Add(oversizedFrame)
	for _, b := range append(workloads.Suite(), workloads.Extended()...) {
		for _, opt := range []int{0, 2} {
			code, err := b.Compile()
			if err != nil {
				f.Fatal(err)
			}
			if code, err = minipy.Optimize(code, opt, nil); err != nil {
				f.Fatal(err)
			}
			// Folding the nested code objects into the first keeps the
			// program verifiable, so the fuzzer starts from accepted code.
			seed := encodeFuzzCode(code, false)
			r := fuzzReader(seed)
			if err := minipy.Verify(decodeFuzzCode(&r, false)); err != nil {
				f.Fatalf("%s at -opt %d: the seed does not verify: %v", b.Name, opt, err)
			}
			f.Add(seed)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzReader(data)
		code := decodeFuzzCode(&r, false)
		verr := minipy.Verify(code)
		codes := []*minipy.Code{code}
		for _, k := range code.Consts {
			if sub, ok := k.(*minipy.Code); ok && !slices.Contains(codes, sub) {
				codes = append(codes, sub)
			}
		}
		for _, c := range codes {
			rc, err := minipy.LowerToRegister(c)
			if err != nil {
				if verr == nil {
					t.Fatalf("Verify accepted %s, lowering refused it: %v", c.Name, err)
				}
				continue
			}
			if err := minipy.VerifyRegister(&rc); err != nil {
				t.Fatalf("%s lowered, but its register code is rejected: %v", c.Name, err)
			}
			minipy.ElideMoves(&rc)
			if err := minipy.VerifyRegister(&rc); err != nil {
				t.Fatalf("%s lowered, but its move-elided register code is rejected: %v", c.Name, err)
			}
		}
	})
}
