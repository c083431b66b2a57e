// Package analysis is the MiniPy static-analysis subsystem: control-flow
// graphs with dominators, definite-assignment checking, liveness/dead-store
// detection, a determinism audit, and one abstract interpreter whose class
// component reports certain type errors and whose interval, freshness and
// effect components derive the certificate (absint.go). The harness runs
// it on every workload before the first sample is taken, so malformed or
// type-confused programs surface as positioned compile-time diagnostics
// instead of VM errors at a distance — the pre-run validation phase the
// methodology assumes (DESIGN.md §9, §14).
package analysis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/minipy"
)

// Block is one basic block: a maximal straight-line instruction run
// [Start, End) with control entering only at Start and leaving only at
// End-1.
type Block struct {
	ID    int
	Start int // first pc (inclusive)
	End   int // last pc (exclusive)
	Succs []int
	Preds []int
}

// Graph is the control-flow graph of one code object.
type Graph struct {
	Code   *minipy.Code
	Blocks []*Block
	// BlockOf maps each pc to the id of its containing block.
	BlockOf []int
	// RPO is the reverse postorder of blocks reachable from the entry.
	RPO []int
	// Idom[b] is b's immediate dominator block id (-1 for the entry and for
	// unreachable blocks).
	Idom []int
	// Reachable[b] reports whether block b is reachable from the entry.
	Reachable []bool
}

// BuildCFG partitions a verified code object into basic blocks and computes
// predecessors, successors, reachability, reverse postorder, and immediate
// dominators. Block ends and edges come from the bytecode format the
// verifier reads (minipy.Op.EndsBlock, minipy.Instr.Succs). The code must
// already have passed minipy.Verify (jump targets in range, no
// fall-off-the-end), which BuildCFG assumes rather than re-checks.
func BuildCFG(code *minipy.Code) *Graph {
	n := len(code.Ops)
	leader := make([]bool, n)
	leader[0] = true
	for pc, ins := range code.Ops {
		if !ins.Op.EndsBlock() {
			continue
		}
		succ, k := ins.Succs(pc)
		for _, s := range succ[:k] {
			leader[s] = true
		}
		if pc+1 < n {
			leader[pc+1] = true
		}
	}

	g := &Graph{Code: code, BlockOf: make([]int, n)}
	for pc := 0; pc < n; {
		b := &Block{ID: len(g.Blocks), Start: pc}
		for {
			g.BlockOf[pc] = b.ID
			pc++
			if pc >= n || leader[pc] {
				break
			}
		}
		b.End = pc
		g.Blocks = append(g.Blocks, b)
	}
	for _, b := range g.Blocks {
		succ, k := code.Ops[b.End-1].Succs(b.End - 1)
		for _, s := range succ[:k] {
			sb := g.BlockOf[s]
			b.Succs = append(b.Succs, sb)
			g.Blocks[sb].Preds = append(g.Blocks[sb].Preds, b.ID)
		}
	}

	g.computeRPO()
	g.computeDominators()
	return g
}

// computeRPO fills Reachable and RPO via an iterative DFS from the entry.
func (g *Graph) computeRPO() {
	g.Reachable = make([]bool, len(g.Blocks))
	var post []int
	state := make([]int, len(g.Blocks)) // 0 unvisited, 1 on stack, 2 done
	type frame struct{ id, next int }
	stack := []frame{{0, 0}}
	state[0] = 1
	g.Reachable[0] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		b := g.Blocks[f.id]
		if f.next < len(b.Succs) {
			s := b.Succs[f.next]
			f.next++
			if state[s] == 0 {
				state[s] = 1
				g.Reachable[s] = true
				stack = append(stack, frame{s, 0})
			}
			continue
		}
		state[f.id] = 2
		post = append(post, f.id)
		stack = stack[:len(stack)-1]
	}
	g.RPO = make([]int, len(post))
	for i, id := range post {
		g.RPO[len(post)-1-i] = id
	}
}

// computeDominators runs the Cooper–Harvey–Kennedy iterative algorithm over
// the reverse postorder.
func (g *Graph) computeDominators() {
	g.Idom = make([]int, len(g.Blocks))
	rpoNum := make([]int, len(g.Blocks))
	for i := range g.Idom {
		g.Idom[i] = -1
		rpoNum[i] = -1
	}
	for i, id := range g.RPO {
		rpoNum[id] = i
	}
	intersect := func(a, b int) int {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = g.Idom[a]
			}
			for rpoNum[b] > rpoNum[a] {
				b = g.Idom[b]
			}
		}
		return a
	}
	entry := g.RPO[0]
	g.Idom[entry] = entry
	for changed := true; changed; {
		changed = false
		for _, b := range g.RPO[1:] {
			newIdom := -1
			for _, p := range g.Blocks[b].Preds {
				if !g.Reachable[p] || g.Idom[p] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != -1 && g.Idom[b] != newIdom {
				g.Idom[b] = newIdom
				changed = true
			}
		}
	}
	// The entry dominates itself by construction; report it as -1 (no
	// immediate dominator) in the public view.
	g.Idom[entry] = -1
}

// Dominates reports whether block a dominates block b.
func (g *Graph) Dominates(a, b int) bool {
	if !g.Reachable[a] || !g.Reachable[b] {
		return false
	}
	for {
		if a == b {
			return true
		}
		b = g.Idom[b]
		if b == -1 {
			return false
		}
	}
}

// UnreachableBlocks returns the ids of blocks with no path from the entry.
func (g *Graph) UnreachableBlocks() []int {
	var out []int
	for id, r := range g.Reachable {
		if !r {
			out = append(out, id)
		}
	}
	return out
}

// String renders the graph in the stable text form used by golden tests:
// one line per block with its pc range, successors, predecessors, and
// immediate dominator, followed by the reverse postorder.
func (g *Graph) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cfg %s: %d blocks\n", g.Code.Name, len(g.Blocks))
	for _, b := range g.Blocks {
		idom := "-"
		if g.Idom[b.ID] >= 0 {
			idom = fmt.Sprintf("b%d", g.Idom[b.ID])
		}
		mark := ""
		if !g.Reachable[b.ID] {
			mark = " (unreachable)"
		}
		succs := append([]int{}, b.Succs...)
		preds := append([]int{}, b.Preds...)
		sort.Ints(preds)
		fmt.Fprintf(&sb, "  b%d [%d..%d) succs=%v preds=%v idom=%s%s\n",
			b.ID, b.Start, b.End, succs, preds, idom, mark)
	}
	fmt.Fprintf(&sb, "  rpo=%v\n", g.RPO)
	return sb.String()
}
