package minipy

import "fmt"

// Op is a bytecode operation.
type Op uint8

// Bytecode operations. Arg meanings are documented per op.
const (
	OpNop             Op = iota
	OpLoadConst          // arg: const index
	OpLoadLocal          // arg: local slot
	OpStoreLocal         // arg: local slot
	OpLoadGlobal         // arg: name index
	OpStoreGlobal        // arg: name index
	OpLoadCell           // arg: cell index
	OpStoreCell          // arg: cell index
	OpPushCell           // arg: cell index; pushes the *Cell itself (closure capture)
	OpLoadAttr           // arg: name index
	OpStoreAttr          // arg: name index; pops value, then target
	OpBinary             // arg: BinOpCode
	OpUnary              // arg: UnOpCode
	OpJump               // arg: absolute target pc
	OpJumpIfFalse        // arg: target; pops condition
	OpJumpIfTrue         // arg: target; pops condition
	OpJumpIfFalseKeep    // arg: target; jumps keeping value if false, else pops
	OpJumpIfTrueKeep     // arg: target; jumps keeping value if true, else pops
	OpCall               // arg: number of positional args
	OpReturn             // pops return value
	OpPop                // pops one value
	OpDup                // duplicates top of stack
	OpDup2               // duplicates top two stack values
	OpBuildList          // arg: element count
	OpBuildTuple         // arg: element count
	OpBuildDict          // arg: pair count (pops 2*arg)
	OpBuildClass         // arg: attribute pair count; below pairs: base, name
	OpIndexGet           // pops index, target; pushes target[index]
	OpIndexSet           // pops value, index, target
	OpSliceGet           // pops hi, lo, target; pushes target[lo:hi]
	OpDelIndex           // pops index, target
	OpGetIter            // pops iterable; pushes iterator
	OpForIter            // arg: exit pc; pushes next element or pops iterator and jumps
	OpMakeFunction       // arg: const index of *Code; pops len(FreeNames) cells
	OpUnpack             // arg: n; pops sequence, pushes n items (first item on top)

	// Superinstructions, emitted only by the bytecode optimizer (Optimize at
	// level >= 2), never by the compiler. Each fuses an adjacent pair into
	// one dispatch; the cost model charges the sum of the component ops'
	// base cost under a single dispatch overhead.
	OpLoadLocalPair     // arg: slotA | slotB<<12; pushes locals[slotA], locals[slotB]
	OpLoadLocalConst    // arg: slot | constIdx<<12; pushes locals[slot], consts[constIdx]
	OpBinaryJumpIfFalse // arg: BinOpCode | target<<4; pops two, jumps if result is falsy
	opCount
)

var opNames = [...]string{
	OpNop:             "NOP",
	OpLoadConst:       "LOAD_CONST",
	OpLoadLocal:       "LOAD_LOCAL",
	OpStoreLocal:      "STORE_LOCAL",
	OpLoadGlobal:      "LOAD_GLOBAL",
	OpStoreGlobal:     "STORE_GLOBAL",
	OpLoadCell:        "LOAD_CELL",
	OpStoreCell:       "STORE_CELL",
	OpPushCell:        "PUSH_CELL",
	OpLoadAttr:        "LOAD_ATTR",
	OpStoreAttr:       "STORE_ATTR",
	OpBinary:          "BINARY",
	OpUnary:           "UNARY",
	OpJump:            "JUMP",
	OpJumpIfFalse:     "JUMP_IF_FALSE",
	OpJumpIfTrue:      "JUMP_IF_TRUE",
	OpJumpIfFalseKeep: "JUMP_IF_FALSE_KEEP",
	OpJumpIfTrueKeep:  "JUMP_IF_TRUE_KEEP",
	OpCall:            "CALL",
	OpReturn:          "RETURN",
	OpPop:             "POP",
	OpDup:             "DUP",
	OpDup2:            "DUP2",
	OpBuildList:       "BUILD_LIST",
	OpBuildTuple:      "BUILD_TUPLE",
	OpBuildDict:       "BUILD_DICT",
	OpBuildClass:      "BUILD_CLASS",
	OpIndexGet:        "INDEX_GET",
	OpIndexSet:        "INDEX_SET",
	OpSliceGet:        "SLICE_GET",
	OpDelIndex:        "DEL_INDEX",
	OpGetIter:         "GET_ITER",
	OpForIter:         "FOR_ITER",
	OpMakeFunction:    "MAKE_FUNCTION",
	OpUnpack:          "UNPACK",

	OpLoadLocalPair:     "LOAD_LOCAL_PAIR",
	OpLoadLocalConst:    "LOAD_LOCAL_CONST",
	OpBinaryJumpIfFalse: "BINARY_JUMP_IF_FALSE",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// NumOps is the number of defined opcodes (used by dispatch-table ablations
// and per-op accounting arrays).
const NumOps = int(opCount)

// BinOpCode selects the operation performed by OpBinary.
type BinOpCode int32

// Binary operation codes.
const (
	BinAdd BinOpCode = iota
	BinSub
	BinMul
	BinDiv
	BinFloorDiv
	BinMod
	BinPow
	BinEq
	BinNe
	BinLt
	BinLe
	BinGt
	BinGe
	BinIn
)

var binNames = [...]string{
	BinAdd: "+", BinSub: "-", BinMul: "*", BinDiv: "/", BinFloorDiv: "//",
	BinMod: "%", BinPow: "**", BinEq: "==", BinNe: "!=", BinLt: "<",
	BinLe: "<=", BinGt: ">", BinGe: ">=", BinIn: "in",
}

func (b BinOpCode) String() string {
	if int(b) < len(binNames) {
		return binNames[b]
	}
	return fmt.Sprintf("BinOpCode(%d)", int32(b))
}

// UnOpCode selects the operation performed by OpUnary.
type UnOpCode int32

// Unary operation codes.
const (
	UnNeg UnOpCode = iota
	UnNot
	UnPos
)

// Instr is one bytecode instruction.
type Instr struct {
	Op  Op
	Arg int32
}

// Code is a compiled function body (or module body). It implements Value so
// nested code objects can live in the constant pool.
type Code struct {
	Name       string
	NumParams  int
	LocalNames []string // params first, then other locals in binding order
	// CellLocals lists local slots that are boxed into cells at frame entry
	// because a nested function closes over them. cellIndexOf[local] is the
	// cell slot; free variables follow the cell-locals in the cells array.
	CellLocals []int
	FreeNames  []string
	Consts     []Value
	Names      []string
	Ops        []Instr
	Lines      []int32
	IsModule   bool
	// MaxStack is the maximum operand-stack depth this code object can
	// reach, computed by Verify (0 until verified).
	MaxStack int
}

func (*Code) TypeName() string { return "code" }
func (c *Code) Truth() bool    { return true }
func (c *Code) Repr() string   { return "<code " + c.Name + ">" }

// NumCells is the size of a frame's cells array for this code object.
func (c *Code) NumCells() int { return len(c.CellLocals) + len(c.FreeNames) }

// Disassemble renders the bytecode for debugging and golden tests.
func (c *Code) Disassemble() string {
	out := fmt.Sprintf("code %s params=%d locals=%v cells=%v free=%v\n",
		c.Name, c.NumParams, c.LocalNames, c.CellLocals, c.FreeNames)
	for i, in := range c.Ops {
		detail := ""
		switch in.Op {
		case OpLoadConst, OpMakeFunction:
			detail = " ; " + c.Consts[in.Arg].Repr()
		case OpLoadGlobal, OpStoreGlobal, OpLoadAttr, OpStoreAttr:
			detail = " ; " + c.Names[in.Arg]
		case OpLoadLocal, OpStoreLocal:
			detail = " ; " + c.LocalNames[in.Arg]
		case OpBinary:
			detail = " ; " + BinOpCode(in.Arg).String()
		case OpLoadLocalPair:
			detail = fmt.Sprintf(" ; %s, %s",
				c.LocalNames[in.Arg&0xFFF], c.LocalNames[in.Arg>>12])
		case OpLoadLocalConst:
			detail = fmt.Sprintf(" ; %s, %s",
				c.LocalNames[in.Arg&0xFFF], c.Consts[in.Arg>>12].Repr())
		case OpBinaryJumpIfFalse:
			detail = fmt.Sprintf(" ; %s -> %d", BinOpCode(in.Arg&0xF), in.Arg>>4)
		}
		out += fmt.Sprintf("%4d  %-20s %6d%s\n", i, in.Op, in.Arg, detail)
	}
	for _, k := range c.Consts {
		if sub, ok := k.(*Code); ok {
			out += sub.Disassemble()
		}
	}
	return out
}
