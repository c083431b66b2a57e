package vm

import (
	"math"
	"strings"

	"repro/internal/minipy"
)

// binary evaluates a BinOpCode on two operands with Python semantics.
// Runs on every OpBinary dispatch.
// benchlint:hotpath
// benchlint:allow boxedhot — generic fallback on already-boxed operands;
// the register tier handles tagged scalars in intBinFast/floatBinFast first
func (in *Interp) binary(op minipy.BinOpCode, a, b minipy.Value) (minipy.Value, error) {
	// int ⊙ int comparisons are the single hottest binary shape (every loop
	// condition); compare inline instead of through the generic ValueLess /
	// ValueEqual walks. Same results, host-level only.
	if x, ok := a.(minipy.Int); ok {
		if y, ok := b.(minipy.Int); ok {
			switch op {
			case minipy.BinEq:
				return minipy.Bool(x == y), nil
			case minipy.BinNe:
				return minipy.Bool(x != y), nil
			case minipy.BinLt:
				return minipy.Bool(x < y), nil
			case minipy.BinGt:
				return minipy.Bool(x > y), nil
			case minipy.BinLe:
				return minipy.Bool(x <= y), nil
			case minipy.BinGe:
				return minipy.Bool(x >= y), nil
			}
		}
	}
	switch op {
	case minipy.BinEq:
		return minipy.Bool(minipy.ValueEqual(a, b)), nil
	case minipy.BinNe:
		return minipy.Bool(!minipy.ValueEqual(a, b)), nil
	case minipy.BinLt:
		lt, err := minipy.ValueLess(a, b)
		return minipy.Bool(lt), err
	case minipy.BinGt:
		gt, err := minipy.ValueLess(b, a)
		return minipy.Bool(gt), err
	case minipy.BinLe:
		gt, err := minipy.ValueLess(b, a)
		return minipy.Bool(!gt), err
	case minipy.BinGe:
		lt, err := minipy.ValueLess(a, b)
		return minipy.Bool(!lt), err
	case minipy.BinIn:
		return in.contains(a, b)
	}

	// Bools behave as ints in arithmetic (True + True == 2).
	if x, ok := a.(minipy.Bool); ok {
		a = minipy.Int(btoi(x))
	}
	if y, ok := b.(minipy.Bool); ok {
		b = minipy.Int(btoi(y))
	}
	// Fast path: int ⊙ int.
	if x, ok := a.(minipy.Int); ok {
		if y, ok := b.(minipy.Int); ok {
			return intBinary(op, x, y)
		}
	}
	// Numeric with promotion.
	if xf, xok := toFloat(a); xok {
		if yf, yok := toFloat(b); yok {
			return floatBinary(op, xf, yf)
		}
	}
	// String operations.
	if xs, ok := a.(minipy.Str); ok {
		switch op {
		case minipy.BinAdd:
			if ys, ok := b.(minipy.Str); ok {
				return xs + ys, nil
			}
		case minipy.BinMul:
			if n, ok := b.(minipy.Int); ok {
				return repeatStr(xs, int64(n))
			}
		case minipy.BinMod:
			return nil, typeErr("%%-formatting is not supported; use str() and +")
		}
		return nil, typeErr("unsupported operand type(s) for %s: 'str' and '%s'", op, b.TypeName())
	}
	if n, ok := a.(minipy.Int); ok {
		if ys, ok := b.(minipy.Str); ok && op == minipy.BinMul {
			return repeatStr(ys, int64(n))
		}
	}
	// List operations.
	if xl, ok := a.(*minipy.List); ok {
		switch op {
		case minipy.BinAdd:
			if yl, ok := b.(*minipy.List); ok {
				items := make([]minipy.Value, 0, len(xl.Items)+len(yl.Items))
				items = append(items, xl.Items...)
				items = append(items, yl.Items...)
				return in.newList(items), nil
			}
		case minipy.BinMul:
			if n, ok := b.(minipy.Int); ok {
				return in.repeatList(xl, int64(n))
			}
		}
		return nil, typeErr("unsupported operand type(s) for %s: 'list' and '%s'", op, b.TypeName())
	}
	// Tuple concatenation.
	if xt, ok := a.(*minipy.Tuple); ok && op == minipy.BinAdd {
		if yt, ok := b.(*minipy.Tuple); ok {
			items := make([]minipy.Value, 0, len(xt.Items)+len(yt.Items))
			items = append(items, xt.Items...)
			items = append(items, yt.Items...)
			return in.newTuple(items), nil
		}
	}
	return nil, typeErr("unsupported operand type(s) for %s: '%s' and '%s'",
		op, a.TypeName(), b.TypeName())
}

func intBinary(op minipy.BinOpCode, x, y minipy.Int) (minipy.Value, error) {
	// Results go through IntValue so small ints come from the interned
	// table instead of a fresh box per operation. Interned and fresh boxes
	// are indistinguishable to programs (interface equality compares the
	// boxed value; MiniPy has no identity operator).
	switch op {
	case minipy.BinAdd:
		return minipy.IntValue(int64(x + y)), nil
	case minipy.BinSub:
		return minipy.IntValue(int64(x - y)), nil
	case minipy.BinMul:
		return minipy.IntValue(int64(x * y)), nil
	case minipy.BinDiv:
		if y == 0 {
			return nil, zeroDivErr()
		}
		return minipy.Float(float64(x) / float64(y)), nil
	case minipy.BinFloorDiv:
		if y == 0 {
			return nil, zeroDivErr()
		}
		return minipy.IntValue(minipy.FloorDivInt(int64(x), int64(y))), nil
	case minipy.BinMod:
		if y == 0 {
			return nil, zeroDivErr()
		}
		return minipy.IntValue(minipy.PyModInt(int64(x), int64(y))), nil
	case minipy.BinPow:
		if y < 0 {
			return minipy.Float(math.Pow(float64(x), float64(y))), nil
		}
		return minipy.IntValue(intPow(int64(x), int64(y))), nil
	}
	return nil, typeErr("unsupported int operation %s", op)
}

func floatBinary(op minipy.BinOpCode, x, y float64) (minipy.Value, error) {
	switch op {
	case minipy.BinAdd:
		return minipy.Float(x + y), nil
	case minipy.BinSub:
		return minipy.Float(x - y), nil
	case minipy.BinMul:
		return minipy.Float(x * y), nil
	case minipy.BinDiv:
		if y == 0 {
			return nil, zeroDivErr()
		}
		return minipy.Float(x / y), nil
	case minipy.BinFloorDiv:
		if y == 0 {
			return nil, zeroDivErr()
		}
		return minipy.Float(math.Floor(x / y)), nil
	case minipy.BinMod:
		if y == 0 {
			return nil, zeroDivErr()
		}
		m := math.Mod(x, y)
		if m != 0 && (m < 0) != (y < 0) {
			m += y
		}
		return minipy.Float(m), nil
	case minipy.BinPow:
		return minipy.Float(math.Pow(x, y)), nil
	}
	return nil, typeErr("unsupported float operation %s", op)
}

func intPow(base, exp int64) int64 {
	result := int64(1)
	for exp > 0 {
		if exp&1 == 1 {
			result *= base
		}
		base *= base
		exp >>= 1
	}
	return result
}

// maxRepeatLen bounds the result of one repetition: a str of that many
// bytes or a list of that many items. The inventory's largest repetition
// is 3,001 items (primes' `[True] * (n + 1)`).
const maxRepeatLen = 1 << 24

// repeatLen returns the length of a length-long sequence repeated n times,
// or a MemoryError when that would exceed maxRepeatLen. It computes no
// product that could overflow.
func repeatLen(length int, n int64) (int, error) {
	if n <= 0 || length == 0 {
		return 0, nil
	}
	if n > maxRepeatLen/int64(length) {
		return 0, memoryErr("repeating a sequence of length %d %d times exceeds %d items", length, n, maxRepeatLen)
	}
	return length * int(n), nil
}

func repeatStr(s minipy.Str, n int64) (minipy.Str, error) {
	if size, err := repeatLen(len(s), n); size == 0 {
		return "", err
	}
	return minipy.Str(strings.Repeat(string(s), int(n))), nil
}

func (in *Interp) repeatList(l *minipy.List, n int64) (*minipy.List, error) {
	size, err := repeatLen(len(l.Items), n)
	if err != nil {
		return nil, err
	}
	if size == 0 {
		return in.newList(nil), nil
	}
	items := make([]minipy.Value, 0, size)
	for i := int64(0); i < n; i++ {
		items = append(items, l.Items...)
	}
	return in.newList(items), nil
}

func toFloat(v minipy.Value) (float64, bool) {
	switch v := v.(type) {
	case minipy.Int:
		return float64(v), true
	case minipy.Float:
		return float64(v), true
	case minipy.Bool:
		if v {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// contains implements `a in b`.
func (in *Interp) contains(a, b minipy.Value) (minipy.Value, error) {
	switch c := b.(type) {
	case *minipy.List:
		for _, it := range c.Items {
			if minipy.ValueEqual(a, it) {
				return minipy.Bool(true), nil
			}
		}
		return minipy.Bool(false), nil
	case *minipy.Tuple:
		for _, it := range c.Items {
			if minipy.ValueEqual(a, it) {
				return minipy.Bool(true), nil
			}
		}
		return minipy.Bool(false), nil
	case *minipy.Dict:
		k, err := minipy.MakeKey(a)
		if err != nil {
			return nil, typeErr("%s", err.Error())
		}
		_, ok := c.Get(k)
		return minipy.Bool(ok), nil
	case minipy.Str:
		s, ok := a.(minipy.Str)
		if !ok {
			return nil, typeErr("'in <string>' requires string as left operand, not %s", a.TypeName())
		}
		return minipy.Bool(strings.Contains(string(c), string(s))), nil
	case *minipy.RangeVal:
		n, ok := a.(minipy.Int)
		if !ok {
			return minipy.Bool(false), nil
		}
		v := int64(n)
		if c.Step > 0 {
			return minipy.Bool(v >= c.Start && v < c.Stop && (v-c.Start)%c.Step == 0), nil
		}
		return minipy.Bool(v <= c.Start && v > c.Stop && (c.Start-v)%(-c.Step) == 0), nil
	}
	return nil, typeErr("argument of type '%s' is not iterable", b.TypeName())
}

// unary evaluates a UnOpCode. Runs on every OpUnary dispatch.
// benchlint:hotpath
// benchlint:allow boxedhot — generic fallback on already-boxed operands
func (in *Interp) unary(op minipy.UnOpCode, v minipy.Value) (minipy.Value, error) {
	switch op {
	case minipy.UnNot:
		return minipy.Bool(!v.Truth()), nil
	case minipy.UnNeg:
		switch v := v.(type) {
		case minipy.Int:
			return minipy.IntValue(int64(-v)), nil
		case minipy.Float:
			return -v, nil
		case minipy.Bool:
			if v {
				return minipy.Int(-1), nil
			}
			return minipy.Int(0), nil
		}
		return nil, typeErr("bad operand type for unary -: '%s'", v.TypeName())
	case minipy.UnPos:
		switch v := v.(type) {
		case minipy.Int, minipy.Float:
			return v, nil
		case minipy.Bool:
			// Python: +True == 1.
			if v {
				return minipy.Int(1), nil
			}
			return minipy.Int(0), nil
		}
		return nil, typeErr("bad operand type for unary +: '%s'", v.TypeName())
	}
	return nil, typeErr("unsupported unary operation")
}

// indexGet implements target[index].
func (in *Interp) indexGet(target, index minipy.Value) (minipy.Value, error) {
	switch t := target.(type) {
	case *minipy.List:
		i, err := seqIndex(index, len(t.Items))
		if err != nil {
			return nil, err
		}
		in.memAccess(t.Addr+uint64(i)*8, false)
		return t.Items[i], nil
	case *minipy.Tuple:
		i, err := seqIndex(index, len(t.Items))
		if err != nil {
			return nil, err
		}
		in.memAccess(t.Addr+uint64(i)*8, false)
		return t.Items[i], nil
	case minipy.Str:
		i, err := seqIndex(index, len(t))
		if err != nil {
			return nil, err
		}
		return minipy.Str1Value(t[i]), nil
	case *minipy.Dict:
		k, err := minipy.MakeKey(index)
		if err != nil {
			return nil, typeErr("%s", err.Error())
		}
		in.memAccess(t.Addr+keyOffset(k), false)
		v, ok := t.Get(k)
		if !ok {
			return nil, keyErr("%s", index.Repr())
		}
		return v, nil
	}
	return nil, typeErr("'%s' object is not subscriptable", target.TypeName())
}

// indexSet implements target[index] = value.
func (in *Interp) indexSet(target, index, value minipy.Value) error {
	switch t := target.(type) {
	case *minipy.List:
		i, err := seqIndex(index, len(t.Items))
		if err != nil {
			return err
		}
		in.memAccess(t.Addr+uint64(i)*8, true)
		t.Items[i] = value
		return nil
	case *minipy.Dict:
		k, err := minipy.MakeKey(index)
		if err != nil {
			return typeErr("%s", err.Error())
		}
		in.memAccess(t.Addr+keyOffset(k), true)
		t.Set(k, index, value)
		return nil
	}
	return typeErr("'%s' object does not support item assignment", target.TypeName())
}

// delIndex implements del target[index].
func (in *Interp) delIndex(target, index minipy.Value) error {
	switch t := target.(type) {
	case *minipy.Dict:
		k, err := minipy.MakeKey(index)
		if err != nil {
			return typeErr("%s", err.Error())
		}
		if !t.Delete(k) {
			return keyErr("%s", index.Repr())
		}
		return nil
	case *minipy.List:
		i, err := seqIndex(index, len(t.Items))
		if err != nil {
			return err
		}
		t.Items = append(t.Items[:i], t.Items[i+1:]...)
		return nil
	}
	return typeErr("'%s' object does not support item deletion", target.TypeName())
}

// sliceGet implements target[lo:hi] with Python clamping semantics.
func (in *Interp) sliceGet(target, lo, hi minipy.Value) (minipy.Value, error) {
	bounds := func(n int) (int, int, error) {
		start, stop := 0, n
		if _, isNone := lo.(minipy.NoneType); !isNone {
			i, ok := lo.(minipy.Int)
			if !ok {
				return 0, 0, typeErr("slice indices must be integers")
			}
			start = clampIndex(int(i), n)
		}
		if _, isNone := hi.(minipy.NoneType); !isNone {
			i, ok := hi.(minipy.Int)
			if !ok {
				return 0, 0, typeErr("slice indices must be integers")
			}
			stop = clampIndex(int(i), n)
		}
		if stop < start {
			stop = start
		}
		return start, stop, nil
	}
	switch t := target.(type) {
	case *minipy.List:
		start, stop, err := bounds(len(t.Items))
		if err != nil {
			return nil, err
		}
		items := make([]minipy.Value, stop-start)
		copy(items, t.Items[start:stop])
		return in.newList(items), nil
	case *minipy.Tuple:
		start, stop, err := bounds(len(t.Items))
		if err != nil {
			return nil, err
		}
		items := make([]minipy.Value, stop-start)
		copy(items, t.Items[start:stop])
		return in.newTuple(items), nil
	case minipy.Str:
		start, stop, err := bounds(len(t))
		if err != nil {
			return nil, err
		}
		return t[start:stop], nil
	}
	return nil, typeErr("'%s' object is not sliceable", target.TypeName())
}

func clampIndex(i, n int) int {
	if i < 0 {
		i += n
		if i < 0 {
			i = 0
		}
	}
	if i > n {
		i = n
	}
	return i
}

// seqIndex validates and normalizes a sequence index (negative allowed).
func seqIndex(index minipy.Value, n int) (int, error) {
	var i int64
	switch idx := index.(type) {
	case minipy.Int:
		i = int64(idx)
	case minipy.Bool:
		if idx {
			i = 1
		}
	default:
		return 0, typeErr("indices must be integers, not %s", index.TypeName())
	}
	return seqIndexInt(i, n)
}

// seqIndexInt normalizes an already-unboxed sequence index: the tail of
// seqIndex shared with the register tier, which has the int64 payload in a
// tagged slot and never needs the type switch.
func seqIndexInt(i int64, n int) (int, error) {
	if i < 0 {
		i += int64(n)
	}
	if i < 0 || i >= int64(n) {
		return 0, indexErr("index out of range")
	}
	return int(i), nil
}

// keyOffset spreads dict accesses over a synthetic bucket array for the
// cache model.
func keyOffset(k minipy.Key) uint64 {
	var h uint64 = 1469598103934665603
	mix := func(b byte) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	mix(k.KindTag)
	x := uint64(k.I) ^ math.Float64bits(k.F)
	for i := 0; i < 8; i++ {
		mix(byte(x >> (8 * i)))
	}
	for i := 0; i < len(k.S); i++ {
		mix(k.S[i])
	}
	return (h % 512) * 8
}

func btoi(b minipy.Bool) int64 {
	if b {
		return 1
	}
	return 0
}
