package counters

import (
	"testing"

	"repro/internal/minipy"
)

func TestCacheHitAfterMiss(t *testing.T) {
	c := NewCache("L1", 32<<10, 64, 8)
	if c.Access(0x1000) {
		t.Fatal("cold access must miss")
	}
	if !c.Access(0x1000) {
		t.Fatal("second access must hit")
	}
	if !c.Access(0x1010) {
		t.Fatal("same-line access must hit")
	}
	if c.Access(0x1040) {
		t.Fatal("next line must miss")
	}
	if c.Hits != 2 || c.Misses != 2 {
		t.Fatalf("hits %d misses %d", c.Hits, c.Misses)
	}
	if c.MissRate() != 0.5 {
		t.Fatalf("miss rate %v", c.MissRate())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way cache with 2 sets: 4 lines total, line size 64.
	c := NewCache("tiny", 256, 64, 2)
	setStride := uint64(128) // addresses mapping to the same set
	a, b, x := uint64(0), setStride, 2*setStride
	c.Access(a) // miss, installs
	c.Access(b) // miss, installs (set full)
	c.Access(a) // hit, refreshes a
	c.Access(x) // miss, evicts LRU (b)
	if !c.Access(a) {
		t.Fatal("a should survive (recently used)")
	}
	if c.Access(b) {
		t.Fatal("b should have been evicted")
	}
}

func TestCacheWorkingSetBehaviour(t *testing.T) {
	c := NewCache("L1", 1<<10, 64, 4) // 1 KiB
	// Working set smaller than the cache: near-zero steady-state misses.
	for round := 0; round < 10; round++ {
		for addr := uint64(0); addr < 512; addr += 64 {
			c.Access(addr)
		}
	}
	smallMisses := c.Misses
	if smallMisses != 8 {
		t.Fatalf("small working set misses %d, want 8 (cold only)", smallMisses)
	}
	// Working set much larger than the cache: mostly misses.
	c.Reset()
	for round := 0; round < 10; round++ {
		for addr := uint64(0); addr < 64*1024; addr += 64 {
			c.Access(addr)
		}
	}
	if c.MissRate() < 0.9 {
		t.Fatalf("streaming working set miss rate %v, want ~1", c.MissRate())
	}
}

func TestCacheReset(t *testing.T) {
	c := NewCache("L1", 512, 64, 2)
	c.Access(0)
	c.Reset()
	if c.Hits != 0 || c.Misses != 0 {
		t.Fatal("counters not cleared")
	}
	if c.Access(0) {
		t.Fatal("contents not cleared")
	}
}

func TestGShareLearnsBias(t *testing.T) {
	g := NewGShare(12)
	// A strongly biased branch should become nearly perfectly predicted.
	for i := 0; i < 1000; i++ {
		g.Predict(0x42, true)
	}
	if g.MispredictRate() > 0.02 {
		t.Fatalf("biased branch mispredict rate %v", g.MispredictRate())
	}
}

func TestGShareLearnsAlternation(t *testing.T) {
	g := NewGShare(12)
	// Alternating pattern is learnable through global history.
	for i := 0; i < 2000; i++ {
		g.Predict(0x7, i%2 == 0)
	}
	// Only count the tail after training.
	g2 := NewGShare(12)
	for i := 0; i < 2000; i++ {
		g2.Predict(0x7, i%2 == 0)
	}
	trained := g2.Mispredicts
	for i := 2000; i < 4000; i++ {
		g2.Predict(0x7, i%2 == 0)
	}
	tailMisses := g2.Mispredicts - trained
	if float64(tailMisses)/2000 > 0.05 {
		t.Fatalf("alternating pattern not learned: %d misses in tail", tailMisses)
	}
}

func TestGShareRandomIsHard(t *testing.T) {
	g := NewGShare(12)
	// A pseudo-random pattern should hover near 50% mispredicts.
	state := uint64(12345)
	for i := 0; i < 5000; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		g.Predict(0x99, state&(1<<40) != 0)
	}
	if g.MispredictRate() < 0.35 {
		t.Fatalf("random branches predicted too well: %v", g.MispredictRate())
	}
}

func TestDispatchPredictorLearnsLoops(t *testing.T) {
	d := NewDispatchPredictor()
	// A repeating opcode sequence (like a hot loop body) becomes fully
	// predictable with two-op context.
	seq := []uint8{1, 2, 3, 4, 5, 6}
	for round := 0; round < 200; round++ {
		for _, op := range seq {
			d.Next(op)
		}
	}
	before := d.Mispredicts
	for round := 0; round < 100; round++ {
		for _, op := range seq {
			d.Next(op)
		}
	}
	tail := d.Mispredicts - before
	if tail != 0 {
		t.Fatalf("loop dispatch not fully learned: %d tail misses", tail)
	}
}

func TestModelProbeIntegration(t *testing.T) {
	m := NewModel()
	var stall uint64
	stall += m.OnOp(minipy.OpBinary, 20)
	stall += m.OnMem(0x1234, false)
	stall += m.OnMem(0x1234, true)
	stall += m.OnBranch(7, true)
	if m.Ops != 1 || m.Instructions != 20 {
		t.Fatalf("op accounting: %d ops, %d instrs", m.Ops, m.Instructions)
	}
	if m.MemReads != 1 || m.MemWrites != 1 {
		t.Fatalf("mem accounting: %d reads %d writes", m.MemReads, m.MemWrites)
	}
	// First mem access is an L2 miss: expensive.
	if stall < m.Pen.MemExtra {
		t.Fatalf("cold access should pay the memory penalty, stall=%d", stall)
	}
	snap := m.Snapshot()
	if snap.Cycles != m.Instructions+m.FrontendStalls+m.BadSpecStalls+m.BackendStalls {
		t.Fatal("snapshot cycle identity broken")
	}
	fracs := snap.Retiring + snap.FrontendBound + snap.BadSpecBound + snap.BackendBound
	if !(fracs > 0.999 && fracs < 1.001) {
		t.Fatalf("top-down fractions sum to %v", fracs)
	}
}

func TestModelMixSumsToOne(t *testing.T) {
	m := NewModel()
	ops := []minipy.Op{minipy.OpLoadLocal, minipy.OpBinary, minipy.OpJumpIfFalse,
		minipy.OpCall, minipy.OpBuildList, minipy.OpNop, minipy.OpReturn}
	for _, op := range ops {
		m.OnOp(op, 10)
	}
	mix := m.Mix()
	total := mix.LoadStore + mix.Arith + mix.Branch + mix.Call + mix.Alloc + mix.Other
	if !(total > 0.999 && total < 1.001) {
		t.Fatalf("mix sums to %v: %+v", total, mix)
	}
	if mix.Other == 0 {
		t.Fatal("OpNop should land in Other")
	}
}

func TestModelReset(t *testing.T) {
	m := NewModel()
	m.OnOp(minipy.OpBinary, 5)
	m.OnMem(0x10, false)
	m.OnBranch(1, true)
	m.Reset()
	if m.Ops != 0 || m.Instructions != 0 || m.L1.Misses != 0 ||
		m.Branch.Branches != 0 || m.Dispatch.Dispatches != 0 {
		t.Fatal("reset incomplete")
	}
	snap := m.Snapshot()
	if snap.Cycles != 0 || snap.IPC != 0 {
		t.Fatal("snapshot after reset not zero")
	}
}

func TestDefaultPenaltiesOrdering(t *testing.T) {
	p := DefaultPenalties()
	if !(p.MemExtra > p.L2HitExtra && p.L2HitExtra > 0) {
		t.Fatalf("memory hierarchy penalties out of order: %+v", p)
	}
}

func TestTLBBasics(t *testing.T) {
	tlb := NewTLB(4, 4096)
	if tlb.Access(0x1000) {
		t.Fatal("cold access must miss")
	}
	if !tlb.Access(0x1FFF) {
		t.Fatal("same-page access must hit")
	}
	if tlb.Access(0x2000) {
		t.Fatal("next page must miss")
	}
	// Fill beyond capacity and verify LRU eviction.
	tlb.Access(0x3000)
	tlb.Access(0x4000)
	tlb.Access(0x5000) // evicts page 1 (0x1000), the LRU
	if tlb.Access(0x1000) {
		t.Fatal("evicted page should miss")
	}
	if !tlb.Access(0x5000) {
		t.Fatal("recent page should hit")
	}
	tlb.Reset()
	if tlb.Hits != 0 || tlb.Misses != 0 || tlb.Access(0x5000) {
		t.Fatal("reset incomplete")
	}
}

func TestTLBWorkingSetSeparation(t *testing.T) {
	// A compact working set fits the TLB; a sprawling one thrashes it.
	small := NewTLB(64, 4096)
	for round := 0; round < 5; round++ {
		for p := uint64(0); p < 32; p++ {
			small.Access(p * 4096)
		}
	}
	if small.MissRate() > 0.25 {
		t.Fatalf("compact working set miss rate %v", small.MissRate())
	}
	big := NewTLB(64, 4096)
	for round := 0; round < 5; round++ {
		for p := uint64(0); p < 1024; p++ {
			big.Access(p * 4096)
		}
	}
	if big.MissRate() < 0.9 {
		t.Fatalf("sprawling working set miss rate %v", big.MissRate())
	}
}

func TestModelTLBIntegration(t *testing.T) {
	m := NewModel()
	// Touch many distinct pages: TLB misses must show up as backend stalls.
	for p := uint64(0); p < 200; p++ {
		m.OnMem(p*4096, false)
	}
	if m.DTLB.Misses == 0 {
		t.Fatal("expected TLB misses")
	}
	snap := m.Snapshot()
	if snap.TLBMPKI != 0 {
		// Instructions are zero here, so MPKI cannot be computed; touch an
		// op and recheck plumbing.
		t.Fatalf("TLBMPKI %v with zero instructions", snap.TLBMPKI)
	}
	m.OnOp(minipy.OpNop, 1000)
	snap = m.Snapshot()
	if snap.TLBMPKI <= 0 {
		t.Fatal("TLB MPKI not derived")
	}
}
