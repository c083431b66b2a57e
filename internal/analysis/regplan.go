package analysis

import "repro/internal/minipy"

// RegisterFacts is the certificate's register-tier section for one
// function (DESIGN.md §16): the shape of the 1:1 register lowering the VM
// executes by default, the compacted size of the move-elided A9 variant,
// and how many register-write sites the interval analysis licenses to hold
// unboxed tagged words. A function that fails to lower (Reason non-empty)
// cannot run: the VM returns the lowering error to its caller. The
// certificate records the refusal so a lowering regression is visible as
// certificate drift before any run.
type RegisterFacts struct {
	Lowered bool `json:"lowered"`
	// Regs is the register-file size: locals plus the operand-stack
	// high-water mark of the verified stack form.
	Regs int `json:"regs,omitempty"`
	// Ops is the instruction count of the pc-preserving lowering (equal to
	// the stack form's by construction); OpsElided is the count after the
	// stream-changing move-elision pass (ablation A9).
	Ops       int `json:"ops,omitempty"`
	OpsElided int `json:"ops_elided,omitempty"`
	// UnboxedSites counts register-write sites whose produced value the
	// interval analysis proved to be a machine integer — exactly the sites
	// the tagged representation keeps out of the heap.
	UnboxedSites int `json:"unboxed_sites"`
	// Reason explains a lowering refusal ("" when Lowered).
	Reason string `json:"reason,omitempty"`
}

// registerPlan lowers one code object the same way the VM does (lower, verify, elide) and summarizes the result against the
// function's interval claims.
func registerPlan(code *minipy.Code, claims map[int]ival) RegisterFacts {
	rc, err := minipy.LowerToRegister(code)
	if err != nil {
		return RegisterFacts{Reason: err.Error()}
	}
	if err := minipy.VerifyRegister(rc); err != nil {
		return RegisterFacts{Reason: err.Error()}
	}
	elided := minipy.ElideMoves(rc)
	unboxed := 0
	for _, ins := range rc.Ops {
		if _, ok := claims[int(ins.Orig)]; ok {
			unboxed++
		}
	}
	return RegisterFacts{
		Lowered:      true,
		Regs:         rc.NumRegs,
		Ops:          len(rc.Ops),
		OpsElided:    len(elided.Ops),
		UnboxedSites: unboxed,
	}
}
