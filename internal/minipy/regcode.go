package minipy

import (
	"fmt"
	"strings"
)

// ROp is a register-form bytecode operation. The VM executes these instead
// of the stack ops: every operand names a virtual register directly
// (three-address form), so dispatch does no push/pop slice traffic. The
// lowering from stack form is 1:1 and pc-preserving (see LowerToRegister),
// which is what makes the simulated counter stream the stack program's by
// construction.
type ROp uint8

// Register operations. Register-operand meanings are documented per op;
// `A` is the destination unless noted. Arg keeps the *original* stack-form
// immediate (const/name/cell index, jump target, count, packed fields) so
// the cost model, inline caches and probe address synthesis key off the
// stack program's values.
const (
	RopNop               ROp = iota
	RopLoadConst             // A = consts[Arg]
	RopLoadLocal             // A = local B (Arg = B, the source slot)
	RopStoreLocal            // local A = B
	RopLoadGlobal            // A = global names[Arg]
	RopStoreGlobal           // global names[Arg] = A
	RopLoadCell              // A = cell Arg contents
	RopStoreCell             // cell Arg contents = A
	RopPushCell              // A = the *Cell itself (closure capture)
	RopLoadAttr              // B = A.names[Arg] (B = A under 1:1 lowering)
	RopStoreAttr             // A.names[Arg] = B
	RopBinary                // C = A ⊙ B (Arg = BinOpCode; C = A under 1:1 lowering)
	RopUnary                 // B = ⊙A (Arg = UnOpCode; B = A under 1:1 lowering)
	RopJump                  // pc = Arg
	RopJumpIfFalse           // if !truth(A): pc = Arg
	RopJumpIfTrue            // if truth(A): pc = Arg
	RopJumpIfFalseKeep       // like RopJumpIfFalse but A survives on the jump path
	RopJumpIfTrueKeep        // like RopJumpIfTrue but A survives on the jump path
	RopCall                  // B = call A(A+1 .. A+Arg) (B = A under 1:1 lowering)
	RopReturn                // return A
	RopDrop                  // discard A (clears the register for GC hygiene)
	RopDup                   // A = B
	RopDup2                  // A, A+1 = B, B+1
	RopBuildList             // B = list of A .. A+Arg-1 (B = A under 1:1 lowering)
	RopBuildTuple            // B = tuple of A .. A+Arg-1 (B = A under 1:1 lowering)
	RopBuildDict             // A = dict of Arg (key, value) register pairs at A
	RopBuildClass            // A = class from [name, base, (name, value)*Arg] at A
	RopIndexGet              // C = A[B] (C = A under 1:1 lowering)
	RopIndexSet              // A[B] = C
	RopSliceGet              // A = A[B:C]
	RopDelIndex              // del A[B]
	RopGetIter               // A = iter(A)
	RopForIter               // A+1 = next(A) or clear A and pc = Arg
	RopMakeFunction          // A = function(consts[Arg]); free cells at A .. A+nf-1
	RopUnpack                // A..A+Arg-1 = unpack sequence in A (first item last)
	RopLoadLocalPair         // A = local B; A+1 = local C (Arg = original packed arg)
	RopLoadLocalConst        // A = local B; A+1 = consts[Arg>>12]
	RopBinaryJumpIfFalse     // if !truth(A ⊙ B): pc = Arg>>4 (⊙ = Arg&0xF)

	// Quickened forms: rewritten in place by the register interpreter after
	// first execution observes a monomorphic operand shape. Never produced
	// by LowerToRegister; each carries the Src/Arg of the generic form it
	// replaced so cost accounting and deoptimization are exact. The guard
	// (operand tags) is re-checked on every execution — a shape miss falls
	// back to the generic path for that execution without deoptimizing the
	// site, so a rare polymorphic hit costs two tag tests, not a rewrite.
	RopBinaryII            // RopBinary specialized to int ⊙ int
	RopBinaryFF            // RopBinary specialized to float ⊙ float
	RopBinaryJumpIfFalseII // RopBinaryJumpIfFalse specialized to int ⊙ int
	RopForIterRange        // RopForIter specialized to a range iterator
	ropCount
)

var ropNames = [...]string{
	RopNop:             "RNOP",
	RopLoadConst:       "RLOAD_CONST",
	RopLoadLocal:       "RLOAD_LOCAL",
	RopStoreLocal:      "RSTORE_LOCAL",
	RopLoadGlobal:      "RLOAD_GLOBAL",
	RopStoreGlobal:     "RSTORE_GLOBAL",
	RopLoadCell:        "RLOAD_CELL",
	RopStoreCell:       "RSTORE_CELL",
	RopPushCell:        "RPUSH_CELL",
	RopLoadAttr:        "RLOAD_ATTR",
	RopStoreAttr:       "RSTORE_ATTR",
	RopBinary:          "RBINARY",
	RopUnary:           "RUNARY",
	RopJump:            "RJUMP",
	RopJumpIfFalse:     "RJUMP_IF_FALSE",
	RopJumpIfTrue:      "RJUMP_IF_TRUE",
	RopJumpIfFalseKeep: "RJUMP_IF_FALSE_KEEP",
	RopJumpIfTrueKeep:  "RJUMP_IF_TRUE_KEEP",
	RopCall:            "RCALL",
	RopReturn:          "RRETURN",
	RopDrop:            "RDROP",
	RopDup:             "RDUP",
	RopDup2:            "RDUP2",
	RopBuildList:       "RBUILD_LIST",
	RopBuildTuple:      "RBUILD_TUPLE",
	RopBuildDict:       "RBUILD_DICT",
	RopBuildClass:      "RBUILD_CLASS",
	RopIndexGet:        "RINDEX_GET",
	RopIndexSet:        "RINDEX_SET",
	RopSliceGet:        "RSLICE_GET",
	RopDelIndex:        "RDEL_INDEX",
	RopGetIter:         "RGET_ITER",
	RopForIter:         "RFOR_ITER",
	RopMakeFunction:    "RMAKE_FUNCTION",
	RopUnpack:          "RUNPACK",
	RopLoadLocalPair:   "RLOAD_LOCAL_PAIR",
	RopLoadLocalConst:  "RLOAD_LOCAL_CONST",

	RopBinaryJumpIfFalse: "RBINARY_JUMP_IF_FALSE",

	RopBinaryII:            "RBINARY_II",
	RopBinaryFF:            "RBINARY_FF",
	RopBinaryJumpIfFalseII: "RBINARY_JUMP_IF_FALSE_II",
	RopForIterRange:        "RFOR_ITER_RANGE",
}

func (o ROp) String() string {
	if int(o) < len(ropNames) && ropNames[o] != "" {
		return ropNames[o]
	}
	return fmt.Sprintf("ROp(%d)", int(o))
}

// NumROps is the number of defined register opcodes.
const NumROps = int(ropCount)

// RInstr is one register-form instruction. Src is the stack opcode this
// instruction was lowered from: the engine charges baseInstr[Src], indexes
// inline-cache counters by it, and reports it to tracers, so the simulated
// stream is indistinguishable from stack execution. Orig is the source
// stack pc — equal to the instruction's own index under the default 1:1
// lowering, and the pre-elision pc after ElideMoves — used for every
// pc-keyed side structure (IC arrays, attr caches, JIT trace masks, probe
// branch sites, line attribution).
type RInstr struct {
	Op   ROp
	Src  Op
	A    int32
	B    int32
	C    int32
	Arg  int32
	Orig int32
}

// RCode is the register form of one code object. Registers 0..NumLocals-1
// alias the frame's local slots; register NumLocals+d holds the stack
// program's operand at depth d (the verifier proves depth is consistent at
// every join, so the mapping is static).
type RCode struct {
	Code      *Code // source stack code: consts, names, lines, cost keys
	NumLocals int
	NumRegs   int // NumLocals + operand-stack high-water mark
	Ops       []RInstr
	// Depth[pc] is the operand-stack entry depth at pc (-1 = unreachable),
	// in source-pc space. The register interpreter uses it to materialize
	// the equivalent boxed stack for ValueTracer observation.
	Depth []int32
	// Elided reports that the move-elision pass ran: instruction indices no
	// longer match source pcs (Orig still does) and the executed stream is
	// intentionally different from the stack program's.
	Elided bool
}

// Disassemble renders the register code (three-address operands plus the
// source-pc column when elision changed the pc space) for debugging and
// byte-stable golden tests.
func (rc *RCode) Disassemble() string {
	var b strings.Builder
	c := rc.Code
	fmt.Fprintf(&b, "regcode %s regs=%d locals=%d elided=%v\n",
		c.Name, rc.NumRegs, rc.NumLocals, rc.Elided)
	for i, ins := range rc.Ops {
		fmt.Fprintf(&b, "%4d  %-24s %s", i, ins.Op, rc.operands(ins))
		if rc.Elided && int(ins.Orig) != i {
			fmt.Fprintf(&b, " ; src pc %d", ins.Orig)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// reg renders a register operand, naming local-slot registers.
func (rc *RCode) reg(r int32) string {
	if int(r) < rc.NumLocals {
		return fmt.Sprintf("r%d(%s)", r, rc.Code.LocalNames[r])
	}
	return fmt.Sprintf("r%d", r)
}

// operands renders the three-address operand list for one instruction.
func (rc *RCode) operands(ins RInstr) string {
	c := rc.Code
	switch ins.Op {
	case RopNop:
		return ""
	case RopLoadConst:
		return fmt.Sprintf("%s <- %s", rc.reg(ins.A), c.Consts[ins.Arg].Repr())
	case RopLoadLocal:
		return fmt.Sprintf("%s <- %s", rc.reg(ins.A), rc.reg(ins.B))
	case RopStoreLocal:
		return fmt.Sprintf("%s <- %s", rc.reg(ins.A), rc.reg(ins.B))
	case RopLoadGlobal:
		return fmt.Sprintf("%s <- global %s", rc.reg(ins.A), c.Names[ins.Arg])
	case RopStoreGlobal:
		return fmt.Sprintf("global %s <- %s", c.Names[ins.Arg], rc.reg(ins.A))
	case RopLoadCell:
		return fmt.Sprintf("%s <- cell %d", rc.reg(ins.A), ins.Arg)
	case RopStoreCell:
		return fmt.Sprintf("cell %d <- %s", ins.Arg, rc.reg(ins.A))
	case RopPushCell:
		return fmt.Sprintf("%s <- &cell %d", rc.reg(ins.A), ins.Arg)
	case RopLoadAttr:
		return fmt.Sprintf("%s <- %s.%s", rc.reg(ins.B), rc.reg(ins.A), c.Names[ins.Arg])
	case RopStoreAttr:
		return fmt.Sprintf("%s.%s <- %s", rc.reg(ins.A), c.Names[ins.Arg], rc.reg(ins.B))
	case RopBinary, RopBinaryII, RopBinaryFF:
		return fmt.Sprintf("%s <- %s %s %s", rc.reg(ins.C), rc.reg(ins.A),
			BinOpCode(ins.Arg), rc.reg(ins.B))
	case RopUnary:
		return fmt.Sprintf("%s <- unary%d %s", rc.reg(ins.B), ins.Arg, rc.reg(ins.A))
	case RopJump:
		return fmt.Sprintf("-> %d", ins.Arg)
	case RopJumpIfFalse, RopJumpIfTrue, RopJumpIfFalseKeep, RopJumpIfTrueKeep:
		return fmt.Sprintf("%s -> %d", rc.reg(ins.A), ins.Arg)
	case RopCall:
		return fmt.Sprintf("%s <- %s(%d args)", rc.reg(ins.B), rc.reg(ins.A), ins.Arg)
	case RopReturn:
		return fmt.Sprintf("return %s", rc.reg(ins.A))
	case RopDrop:
		return fmt.Sprintf("drop %s", rc.reg(ins.A))
	case RopDup:
		return fmt.Sprintf("%s <- %s", rc.reg(ins.A), rc.reg(ins.B))
	case RopDup2:
		return fmt.Sprintf("%s,%s <- %s,%s", rc.reg(ins.A), rc.reg(ins.A+1),
			rc.reg(ins.B), rc.reg(ins.B+1))
	case RopBuildList, RopBuildTuple:
		return fmt.Sprintf("%s <- [%s ... n=%d]", rc.reg(ins.B), rc.reg(ins.A), ins.Arg)
	case RopBuildDict, RopBuildClass:
		return fmt.Sprintf("%s <- [%s ... n=%d]", rc.reg(ins.A), rc.reg(ins.A), ins.Arg)
	case RopIndexGet:
		return fmt.Sprintf("%s <- %s[%s]", rc.reg(ins.C), rc.reg(ins.A), rc.reg(ins.B))
	case RopIndexSet:
		return fmt.Sprintf("%s[%s] <- %s", rc.reg(ins.A), rc.reg(ins.B), rc.reg(ins.C))
	case RopSliceGet:
		return fmt.Sprintf("%s <- %s[%s:%s]", rc.reg(ins.A), rc.reg(ins.A),
			rc.reg(ins.B), rc.reg(ins.C))
	case RopDelIndex:
		return fmt.Sprintf("del %s[%s]", rc.reg(ins.A), rc.reg(ins.B))
	case RopGetIter:
		return fmt.Sprintf("%s <- iter(%s)", rc.reg(ins.A), rc.reg(ins.A))
	case RopForIter, RopForIterRange:
		return fmt.Sprintf("%s <- next(%s) else -> %d", rc.reg(ins.A+1), rc.reg(ins.A), ins.Arg)
	case RopMakeFunction:
		return fmt.Sprintf("%s <- %s", rc.reg(ins.A), c.Consts[ins.Arg].Repr())
	case RopUnpack:
		return fmt.Sprintf("%s..%s <- unpack %s", rc.reg(ins.A), rc.reg(ins.A+ins.Arg-1), rc.reg(ins.A))
	case RopLoadLocalPair:
		return fmt.Sprintf("%s,%s <- %s,%s", rc.reg(ins.A), rc.reg(ins.A+1),
			rc.reg(ins.B), rc.reg(ins.C))
	case RopLoadLocalConst:
		return fmt.Sprintf("%s,%s <- %s,%s", rc.reg(ins.A), rc.reg(ins.A+1),
			rc.reg(ins.B), c.Consts[ins.Arg>>12].Repr())
	case RopBinaryJumpIfFalse, RopBinaryJumpIfFalseII:
		return fmt.Sprintf("%s %s %s -> %d", rc.reg(ins.A),
			BinOpCode(ins.Arg&0xF), rc.reg(ins.B), ins.Arg>>4)
	}
	return ""
}
