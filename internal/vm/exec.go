package vm

import (
	"repro/internal/minipy"
)

// failAt decorates a runtime error with the source line of the faulting pc,
// unless it is a step-budget error, which names its own op (budgetErr).
func (in *Interp) failAt(code *minipy.Code, pc int, err error) error {
	if re, ok := err.(*RuntimeError); ok && re.Line == 0 && re.Kind != "TimeoutError" {
		re.Line = int(code.Lines[pc])
	}
	return err
}

// buildClass constructs a class object for OpBuildClass. Split out of the
// dispatch loop because it allocates a methods map (cold: runs once per
// class statement). seg is the operand segment [name, base, (name, value)*n].
func (in *Interp) buildClass(seg []minipy.Value, n int) (minipy.Value, error) {
	methods := map[string]minipy.Value{}
	// Match the historical pop order (top pair first): on duplicate method
	// names the bottom-most pair wins.
	for i := n - 1; i >= 0; i-- {
		nameV := seg[2+2*i]
		v := seg[3+2*i]
		methods[string(nameV.(minipy.Str))] = v
	}
	baseV := seg[1]
	className := string(seg[0].(minipy.Str))
	var baseClass *minipy.Class
	if bc, ok := baseV.(*minipy.Class); ok {
		baseClass = bc
	} else if _, isNone := baseV.(minipy.NoneType); !isNone {
		return nil, typeErr("class base must be a class, not '%s'", baseV.TypeName())
	}
	return &minipy.Class{Name: className, Base: baseClass, Methods: methods, Addr: in.alloc(256)}, nil
}

// branchEvent reports a resolved conditional branch to the probe and, when
// inside a compiled trace, to the JIT guard model. The dispatch loop guards
// the call so plain-interpreter branches skip it entirely.
// benchlint:hotpath
func (in *Interp) branchEvent(st *codeState, pc int, taken, inTrace bool) {
	if in.probe != nil {
		in.stalls += in.probe.OnBranch(st.id|uint64(pc), taken)
	}
	if inTrace {
		in.jitPauses += in.jit.onGuard(st.jit, int32(pc), taken)
	}
}

// nameHash spreads global-name accesses over the synthetic globals region.
// Runs on every global load/store.
// benchlint:hotpath
func nameHash(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
