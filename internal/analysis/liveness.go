package analysis

import (
	"fmt"

	"repro/internal/minipy"
)

// checkLiveness reports dead stores: a STORE_LOCAL whose value no
// execution path reads before the next store (or the end of the frame),
// the set deadStorePCs computes. Stores to cell variables are never dead —
// the cell aliases into closures the analysis cannot see. Loop-variable
// stores (the STORE_LOCAL immediately after FOR_ITER) are classified
// separately as unused-loop-var infos: `for _ in range(n)`-style repeat
// loops are idiomatic in benchmarks, not defects.
func checkLiveness(g *Graph, r *Report, f *FuncReport) {
	c := g.Code
	dead := deadStorePCs(g)
	for pc := range c.Ops {
		if !dead[pc] {
			continue
		}
		name := c.LocalNames[c.Ops[pc].Arg]
		if pc > 0 && c.Ops[pc-1].Op == minipy.OpForIter {
			f.UnusedLoops++
			r.Diagnostics = append(r.Diagnostics, Diagnostic{
				Func: c.Name, PC: pc, Line: lineOf(c, pc),
				Severity: Info, Rule: "unused-loop-var",
				Msg: fmt.Sprintf("loop variable %q is never read", name),
			})
		} else {
			f.DeadStores++
			r.Diagnostics = append(r.Diagnostics, Diagnostic{
				Func: c.Name, PC: pc, Line: lineOf(c, pc),
				Severity: Warning, Rule: "dead-store",
				Msg: fmt.Sprintf("value stored to %q is never read", name),
			})
		}
	}
}

// deadStorePCs returns the pcs of OpStoreLocal instructions whose value no
// execution path reads before the next store or frame exit, walking each
// reachable block backward from its live-out set. Cell-boxed variables use
// distinct ops (STORE_CELL) and are never reported. Shared by the
// dead-store diagnostic above and by OptimizationFacts.
func deadStorePCs(g *Graph) map[int]bool {
	c := g.Code
	if len(c.LocalNames) == 0 {
		return nil
	}
	liveOut := localLiveness(g)
	var dead map[int]bool
	for _, id := range g.RPO {
		b := g.Blocks[id]
		live := liveOut[id].clone()
		for pc := b.End - 1; pc >= b.Start; pc-- {
			ins := c.Ops[pc]
			switch ins.Op {
			case minipy.OpLoadLocal:
				live.set(int(ins.Arg))
			case minipy.OpLoadLocalPair:
				live.set(int(ins.Arg) & 0xFFF)
				live.set(int(ins.Arg) >> 12)
			case minipy.OpLoadLocalConst:
				live.set(int(ins.Arg) & 0xFFF)
			case minipy.OpStoreLocal:
				slot := int(ins.Arg)
				if !live.get(slot) {
					if dead == nil {
						dead = map[int]bool{}
					}
					dead[pc] = true
				}
				live[slot/64] &^= 1 << uint(slot%64)
			}
		}
	}
	return dead
}

// localLiveness runs the backward liveness dataflow over local slots and
// returns each block's live-out set.
func localLiveness(g *Graph) []bitset {
	c := g.Code
	nlocals := len(c.LocalNames)
	nb := len(g.Blocks)
	use := make([]bitset, nb) // read before any write in the block
	def := make([]bitset, nb) // written in the block
	liveIn := make([]bitset, nb)
	liveOut := make([]bitset, nb)
	for i := 0; i < nb; i++ {
		use[i] = newBitset(nlocals)
		def[i] = newBitset(nlocals)
		liveIn[i] = newBitset(nlocals)
		liveOut[i] = newBitset(nlocals)
		b := g.Blocks[i]
		for pc := b.Start; pc < b.End; pc++ {
			ins := c.Ops[pc]
			switch ins.Op {
			case minipy.OpLoadLocal:
				if !def[i].get(int(ins.Arg)) {
					use[i].set(int(ins.Arg))
				}
			case minipy.OpLoadLocalPair:
				for _, slot := range []int{int(ins.Arg) & 0xFFF, int(ins.Arg) >> 12} {
					if !def[i].get(slot) {
						use[i].set(slot)
					}
				}
			case minipy.OpLoadLocalConst:
				if slot := int(ins.Arg) & 0xFFF; !def[i].get(slot) {
					use[i].set(slot)
				}
			case minipy.OpStoreLocal:
				def[i].set(int(ins.Arg))
			}
		}
	}

	for changed := true; changed; {
		changed = false
		// Iterating blocks in reverse RPO converges backward problems fast.
		for i := len(g.RPO) - 1; i >= 0; i-- {
			id := g.RPO[i]
			out := newBitset(nlocals)
			for _, s := range g.Blocks[id].Succs {
				out.or(liveIn[s])
			}
			in := out.clone()
			for j := range in {
				in[j] &^= def[id][j]
				in[j] |= use[id][j]
			}
			if !out.equal(liveOut[id]) || !in.equal(liveIn[id]) {
				liveOut[id].copyFrom(out)
				liveIn[id].copyFrom(in)
				changed = true
			}
		}
	}
	return liveOut
}
