package analysis

import "repro/internal/minipy"

// OptimizationFacts computes the analysis facts consumed by the bytecode
// optimizer (minipy.Optimize): dead local stores, derived from the same
// liveness dataflow that backs the dead-store diagnostic. Facts are keyed
// by *Code pointer and pc in the UNOPTIMIZED instruction stream; the
// optimizer applies them before any pass that renumbers instructions.
// Recurses over nested code objects in the constant pool.
//
// Loop-variable stores (`for _ in range(n)`) are included: the store is
// provably unread, and rewriting it to a plain POP is exactly as safe there
// as anywhere else — the diagnostic layer's idiomatic-code carve-out is a
// reporting policy, not a semantic one.
func OptimizationFacts(root *minipy.Code) *minipy.OptFacts {
	facts := &minipy.OptFacts{DeadStores: map[*minipy.Code]map[int]bool{}}
	for _, c := range collectCodes(root) {
		if dead := deadStorePCs(BuildCFG(c)); len(dead) > 0 {
			facts.DeadStores[c] = dead
		}
	}
	return facts
}
