package analysis

import (
	"fmt"

	"repro/internal/minipy"
)

// bitset is a fixed-width bit vector used by the dataflow passes.
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

func (b bitset) and(o bitset) {
	for i := range b {
		b[i] &= o[i]
	}
}

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

func (b bitset) fill() {
	for i := range b {
		b[i] = ^uint64(0)
	}
}

// varIndex maps the definite-assignment variable space: local slots first,
// then cell slots.
func varIndex(c *minipy.Code, isCell bool, slot int) int {
	if isCell {
		return len(c.LocalNames) + slot
	}
	return slot
}

// varName names a definite-assignment variable for diagnostics.
func varName(c *minipy.Code, isCell bool, slot int) string {
	if !isCell {
		return c.LocalNames[slot]
	}
	if slot < len(c.CellLocals) {
		return c.LocalNames[c.CellLocals[slot]]
	}
	return c.FreeNames[slot-len(c.CellLocals)]
}

// entryAssigned returns the frame-entry assignment facts. must: parameters,
// cell-boxed parameters (the VM boxes cell-locals from the locals array at
// entry, so a cell over a param starts populated), and free cells (captured
// fully formed at MAKE_FUNCTION time). may additionally includes every cell
// variable: cells are shared with closures, so calling a nested function can
// assign a cell this function never stores directly — a direct must/may
// analysis of this body alone cannot prove a cell unassigned.
func entryAssigned(c *minipy.Code, n int) (must, may bitset) {
	must = newBitset(n)
	for i := 0; i < c.NumParams; i++ {
		must.set(varIndex(c, false, i))
	}
	for j, local := range c.CellLocals {
		if local < c.NumParams {
			must.set(varIndex(c, true, j))
		}
	}
	for j := len(c.CellLocals); j < c.NumCells(); j++ {
		must.set(varIndex(c, true, j))
	}
	may = must.clone()
	for j := 0; j < c.NumCells(); j++ {
		may.set(varIndex(c, true, j))
	}
	return must, may
}

// checkDefiniteAssignment runs a forward must/may-assign dataflow over the
// CFG. A load of a variable that no path assigns is an error
// (use-before-def: the VM would fault on every execution reaching it); a
// load assigned on some but not all paths is a possibly-unassigned warning.
func checkDefiniteAssignment(g *Graph, r *Report) {
	c := g.Code
	nvars := len(c.LocalNames) + c.NumCells()
	if nvars == 0 {
		return
	}
	entryMust, entryMay := entryAssigned(c, nvars)

	// transfer applies one block's stores to (must, may) in place and, when
	// report is true, emits diagnostics at load sites.
	warned := make(map[int]bool) // per-variable warning dedup
	transfer := func(b *Block, must, may bitset, report bool) {
		checkLoad := func(pc int, isCell bool, slot int) {
			v := varIndex(c, isCell, slot)
			name := varName(c, isCell, slot)
			if !may.get(v) {
				r.Diagnostics = append(r.Diagnostics, Diagnostic{
					Func: c.Name, PC: pc, Line: lineOf(c, pc),
					Severity: ErrorSev, Rule: "use-before-def",
					Msg: fmt.Sprintf("variable %q is used before any assignment", name),
				})
			} else if !must.get(v) && !warned[v] {
				warned[v] = true
				r.Diagnostics = append(r.Diagnostics, Diagnostic{
					Func: c.Name, PC: pc, Line: lineOf(c, pc),
					Severity: Warning, Rule: "possibly-unassigned",
					Msg: fmt.Sprintf("variable %q may be unassigned on some paths", name),
				})
			}
		}
		for pc := b.Start; pc < b.End; pc++ {
			ins := c.Ops[pc]
			switch ins.Op {
			case minipy.OpLoadLocal, minipy.OpLoadLocalPair, minipy.OpLoadLocalConst:
				if report {
					slots, n := ins.Locals()
					for _, slot := range slots[:n] {
						checkLoad(pc, false, slot)
					}
				}
			case minipy.OpLoadCell:
				// PUSH_CELL captures the cell container, not its value, so
				// it never reads an unassigned variable; only LOAD_CELL is
				// a use.
				if report {
					checkLoad(pc, true, int(ins.Arg))
				}
			case minipy.OpStoreLocal:
				must.set(varIndex(c, false, int(ins.Arg)))
				may.set(varIndex(c, false, int(ins.Arg)))
			case minipy.OpStoreCell:
				must.set(varIndex(c, true, int(ins.Arg)))
				may.set(varIndex(c, true, int(ins.Arg)))
			}
		}
	}

	nb := len(g.Blocks)
	outMust := make([]bitset, nb)
	outMay := make([]bitset, nb)
	for i := 0; i < nb; i++ {
		outMust[i] = newBitset(nvars)
		outMust[i].fill() // ⊤ for the must-intersection until computed
		outMay[i] = newBitset(nvars)
	}

	inOf := func(id int) (bitset, bitset) {
		must := newBitset(nvars)
		may := newBitset(nvars)
		if id == g.RPO[0] {
			// The virtual pre-entry edge contributes the frame-entry facts;
			// back edges into the entry meet with them.
			must.copyFrom(entryMust)
			may.copyFrom(entryMay)
			for _, p := range g.Blocks[id].Preds {
				if g.Reachable[p] {
					must.and(outMust[p])
					may.or(outMay[p])
				}
			}
			return must, may
		}
		must.fill()
		for _, p := range g.Blocks[id].Preds {
			if g.Reachable[p] {
				must.and(outMust[p])
				may.or(outMay[p])
			}
		}
		return must, may
	}

	for changed := true; changed; {
		changed = false
		for _, id := range g.RPO {
			must, may := inOf(id)
			transfer(g.Blocks[id], must, may, false)
			if !must.equal(outMust[id]) || !may.equal(outMay[id]) {
				outMust[id].copyFrom(must)
				outMay[id].copyFrom(may)
				changed = true
			}
		}
	}
	// Reporting pass with converged block-entry states.
	for _, id := range g.RPO {
		must, may := inOf(id)
		transfer(g.Blocks[id], must, may, true)
	}
}
