package vm

import (
	"math"

	"repro/internal/minipy"
)

// rtag discriminates the payload of a register slot. The zero value is
// tagEmpty so a freshly cleared register file models "unassigned local".
type rtag uint8

const (
	tagEmpty rtag = iota // unassigned (reads raise NameError, as nil does)
	tagRef               // boxed minipy.Value in ref
	tagInt               // int64 in num
	tagFloat             // float64 bits in num
	tagBool              // 0/1 in num
	tagNone              // Python None
)

// rslot is one virtual register of the register tier: a word-sized tagged
// representation for the scalar types that dominate hot loops (small ints,
// floats, bools, None) plus a boxed escape hatch for everything else.
// Scalars live unboxed in num and are boxed only at escape points — calls
// into non-register callees, global/cell/attribute/container stores,
// iterator protocol, and tracer observation — so steady-state arithmetic
// and register moves allocate nothing and never touch the heap.
//
// The layout is deliberately NOT a union: ref and num coexist so boxing a
// tagged scalar never allocates for interned values and unboxing a ref
// never loses the original box (checksum/Repr use the boxed value the
// program produced).
type rslot struct {
	ref minipy.Value
	num int64
	tag rtag
}

// runbox converts a boxed value into tagged register form. Scalars are
// untagged; everything else (containers, functions, iterators, strings —
// identity- or method-bearing values) stays a tagRef. A nil input maps to
// tagEmpty, the unassigned-local representation.
// benchlint:hotpath
// benchlint:allow boxedhot — this is the unboxing converter itself
func runbox(v minipy.Value) rslot {
	switch x := v.(type) {
	case minipy.Int:
		return rslot{num: int64(x), tag: tagInt}
	case minipy.Float:
		return rslot{num: int64(math.Float64bits(float64(x))), tag: tagFloat}
	case minipy.Bool:
		if x {
			return rslot{num: 1, tag: tagBool}
		}
		return rslot{num: 0, tag: tagBool}
	case minipy.NoneType:
		return rslot{tag: tagNone}
	case nil:
		return rslot{}
	}
	return rslot{ref: v, tag: tagRef}
}

// rbox materializes the boxed minipy.Value for a register slot. Small ints
// come from the interning table, and bool/None conversions are allocation
// free, so boxing at escape points costs an allocation only for large ints
// and floats, which a boxed operand stack would allocate anyway.
// A tagEmpty slot boxes to nil (unassigned local).
// benchlint:hotpath
// benchlint:allow boxedhot — this is the boxing converter itself
func rbox(s *rslot) minipy.Value {
	switch s.tag {
	case tagRef:
		return s.ref
	case tagInt:
		return minipy.IntValue(s.num)
	case tagFloat:
		return minipy.Float(math.Float64frombits(uint64(s.num)))
	case tagBool:
		return minipy.Bool(s.num != 0)
	case tagNone:
		return minipy.None
	}
	return nil
}

// rtruth evaluates Python truthiness on a register slot without boxing.
// benchlint:hotpath
func rtruth(s *rslot) bool {
	switch s.tag {
	case tagInt:
		return s.num != 0
	case tagFloat:
		return math.Float64frombits(uint64(s.num)) != 0
	case tagBool:
		return s.num != 0
	case tagNone:
		return false
	}
	return s.ref.Truth()
}

// rfloat returns the float64 payload of a tagFloat slot.
func rfloat(s *rslot) float64 { return math.Float64frombits(uint64(s.num)) }

// rsetInt writes an unboxed int result.
// benchlint:hotpath
func rsetInt(s *rslot, v int64) { s.ref = nil; s.num = v; s.tag = tagInt }

// rsetFloat writes an unboxed float result.
// benchlint:hotpath
func rsetFloat(s *rslot, v float64) {
	s.ref = nil
	s.num = int64(math.Float64bits(v))
	s.tag = tagFloat
}

// rsetBool writes an unboxed bool result.
// benchlint:hotpath
func rsetBool(s *rslot, v bool) {
	s.ref = nil
	s.tag = tagBool
	if v {
		s.num = 1
	} else {
		s.num = 0
	}
}

// rsetVal writes a boxed value, re-tagging scalars so a boxed int flowing
// out of a generic helper is immediately unboxed again for later ops.
// benchlint:hotpath
// benchlint:allow boxedhot — escape point: re-tags values arriving boxed
func rsetVal(s *rslot, v minipy.Value) { *s = runbox(v) }

// regArena hands out register files as windows of large shared blocks.
// Frames are strictly LIFO (a callee's file dies before its caller's), so
// getRegs/putRegs are a bump-pointer push/pop: one block allocation serves
// an entire call chain where per-frame slices would allocate at every new
// recursion depth. Windows are cleared on get (tagEmpty = unassigned
// local).
type regArena struct {
	blocks [][]rslot
	bi     int // index of the block currently being carved
	top    int // next free slot in blocks[bi]
	marks  []arenaMark
}

// arenaMark is the arena position saved by getRegs and restored by putRegs.
type arenaMark struct{ bi, top int32 }

// getRegs carves a cleared n-slot register file from the arena.
func (in *Interp) getRegs(n int) []rslot {
	a := &in.regArena
	if a.marks == nil {
		a.marks = make([]arenaMark, 0, 64)
	}
	a.marks = append(a.marks, arenaMark{int32(a.bi), int32(a.top)})
	for {
		if a.bi == len(a.blocks) {
			size := regArenaBlock << uint(a.bi)
			if size < n {
				size = n
			}
			a.blocks = append(a.blocks, make([]rslot, size))
		}
		blk := a.blocks[a.bi]
		if a.top+n <= len(blk) {
			s := blk[a.top : a.top+n]
			a.top += n
			clear(s)
			return s
		}
		a.bi++
		a.top = 0
	}
}

// regArenaBlock is the first block's slot count; later blocks double, so a
// call chain of any depth settles into O(log depth) blocks while shallow
// programs pay one 2KB allocation for the whole Interp lifetime.
const regArenaBlock = 64

// putRegs releases the most recent getRegs window (LIFO by construction:
// every register file is released when its frame returns, before the
// caller's own release).
func (in *Interp) putRegs(_ []rslot) {
	a := &in.regArena
	m := a.marks[len(a.marks)-1]
	a.marks = a.marks[:len(a.marks)-1]
	a.bi, a.top = int(m.bi), int(m.top)
}
