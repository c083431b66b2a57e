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
			slots, n := c.Ops[pc].Locals()
			if c.Ops[pc].Op != minipy.OpStoreLocal {
				for _, slot := range slots[:n] {
					live.set(slot)
				}
				continue
			}
			slot := slots[0]
			if !live.get(slot) {
				if dead == nil {
					dead = map[int]bool{}
				}
				dead[pc] = true
			}
			live[slot/64] &^= 1 << uint(slot%64)
		}
	}
	return dead
}

// bitset is a fixed-width bit vector over local slots.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) get(i int) bool { return b[i/64]&(1<<uint(i%64)) != 0 }
func (b bitset) set(i int)      { b[i/64] |= 1 << uint(i%64) }

func (b bitset) clone() bitset {
	c := make(bitset, len(b))
	copy(c, b)
	return c
}

func (b bitset) copyFrom(o bitset) { copy(b, o) }

func (b bitset) or(o bitset) {
	for i := range b {
		b[i] |= o[i]
	}
}

func (b bitset) equal(o bitset) bool {
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
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
			slots, n := c.Ops[pc].Locals()
			if c.Ops[pc].Op == minipy.OpStoreLocal {
				def[i].set(slots[0])
				continue
			}
			for _, slot := range slots[:n] {
				if !def[i].get(slot) {
					use[i].set(slot)
				}
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
