package counters

import "repro/internal/minipy"

// Penalties are the stall costs (cycles) for each microarchitectural event.
type Penalties struct {
	L2HitExtra       uint64 // L1 miss that hits L2
	MemExtra         uint64 // L2 miss (memory access)
	BranchMispredict uint64
	DispatchMiss     uint64 // interpreter dispatch indirect-branch miss
	TLBMiss          uint64 // dTLB miss (page walk)
}

// DefaultPenalties returns costs loosely matching a modern desktop core.
func DefaultPenalties() Penalties {
	return Penalties{
		L2HitExtra:       10,
		MemExtra:         180,
		BranchMispredict: 15,
		DispatchMiss:     14,
		TLBMiss:          30,
	}
}

// Model is the full hardware-counter simulation. It implements vm.Probe.
type Model struct {
	L1       *Cache
	L2       *Cache
	DTLB     *TLB
	Branch   *GShare
	Dispatch *DispatchPredictor
	Pen      Penalties

	Ops            uint64
	Instructions   uint64
	MemReads       uint64
	MemWrites      uint64
	FrontendStalls uint64 // dispatch-predictor misses
	BadSpecStalls  uint64 // branch mispredictions
	BackendStalls  uint64 // cache misses
	OpHist         [minipy.NumOps]uint64
}

// NewModel builds the default configuration: 32 KiB 8-way L1, 1 MiB 16-way
// L2, 64 B lines, 14-bit gshare.
func NewModel() *Model {
	return &Model{
		L1:       NewCache("L1D", 32<<10, 64, 8),
		L2:       NewCache("L2", 1<<20, 64, 16),
		DTLB:     NewTLB(64, 4<<10),
		Branch:   NewGShare(14),
		Dispatch: NewDispatchPredictor(),
		Pen:      DefaultPenalties(),
	}
}

// OnOp implements vm.Probe: counts the op and models the interpreter's
// dispatch indirect branch.
func (m *Model) OnOp(op minipy.Op, instrs uint64) uint64 {
	m.Ops++
	m.Instructions += instrs
	m.OpHist[op]++
	if !m.Dispatch.Next(uint8(op)) {
		m.FrontendStalls += m.Pen.DispatchMiss
		return m.Pen.DispatchMiss
	}
	return 0
}

// OnBranch implements vm.Probe: models the guest-visible conditional branch.
func (m *Model) OnBranch(site uint64, taken bool) uint64 {
	if !m.Branch.Predict(site, taken) {
		m.BadSpecStalls += m.Pen.BranchMispredict
		return m.Pen.BranchMispredict
	}
	return 0
}

// OnMem implements vm.Probe: walks the cache hierarchy.
func (m *Model) OnMem(addr uint64, write bool) uint64 {
	if write {
		m.MemWrites++
	} else {
		m.MemReads++
	}
	var stall uint64
	if !m.DTLB.Access(addr) {
		stall += m.Pen.TLBMiss
	}
	switch {
	case m.L1.Access(addr):
	case m.L2.Access(addr):
		stall += m.Pen.L2HitExtra
	default:
		stall += m.Pen.MemExtra
	}
	m.BackendStalls += stall
	return stall
}

// Reset clears all structures and counters (a fresh "process").
func (m *Model) Reset() {
	m.L1.Reset()
	m.L2.Reset()
	m.DTLB.Reset()
	m.Branch.Reset()
	m.Dispatch.Reset()
	m.Ops, m.Instructions = 0, 0
	m.MemReads, m.MemWrites = 0, 0
	m.FrontendStalls, m.BadSpecStalls, m.BackendStalls = 0, 0, 0
	m.OpHist = [minipy.NumOps]uint64{}
}

// Snapshot is a derived-metric view of the model, the unit the
// characterization experiments report.
type Snapshot struct {
	Ops            uint64
	Instructions   uint64
	Cycles         uint64 // instructions + all stalls
	IPC            float64
	L1MPKI         float64
	L2MPKI         float64
	TLBMPKI        float64
	BranchMPKI     float64
	BranchMissRate float64
	DispatchMiss   float64
	// Top-down level-1 fractions (sum to 1).
	Retiring      float64
	FrontendBound float64
	BadSpecBound  float64
	BackendBound  float64
}

// Snapshot computes derived metrics from the current counters.
func (m *Model) Snapshot() Snapshot {
	cycles := m.Instructions + m.FrontendStalls + m.BadSpecStalls + m.BackendStalls
	s := Snapshot{
		Ops:          m.Ops,
		Instructions: m.Instructions,
		Cycles:       cycles,
	}
	if cycles > 0 {
		s.IPC = float64(m.Instructions) / float64(cycles)
		s.Retiring = float64(m.Instructions) / float64(cycles)
		s.FrontendBound = float64(m.FrontendStalls) / float64(cycles)
		s.BadSpecBound = float64(m.BadSpecStalls) / float64(cycles)
		s.BackendBound = float64(m.BackendStalls) / float64(cycles)
	}
	if m.Instructions > 0 {
		k := 1000 / float64(m.Instructions)
		s.L1MPKI = float64(m.L1.Misses) * k
		s.L2MPKI = float64(m.L2.Misses) * k
		s.TLBMPKI = float64(m.DTLB.Misses) * k
		s.BranchMPKI = float64(m.Branch.Mispredicts) * k
	}
	s.BranchMissRate = m.Branch.MispredictRate()
	s.DispatchMiss = m.Dispatch.MispredictRate()
	return s
}

// InstructionMix returns the fraction of executed ops in broad categories,
// used by the suite-overview table.
type InstructionMix struct {
	LoadStore float64 // local/global/cell/attr/index data movement
	Arith     float64 // binary/unary
	Branch    float64 // conditional jumps + for-iter
	Call      float64 // call/return
	Alloc     float64 // build list/tuple/dict/class/function
	Other     float64
}

// Mix computes the instruction-mix fractions from the op histogram.
func (m *Model) Mix() InstructionMix {
	var mix InstructionMix
	if m.Ops == 0 {
		return mix
	}
	cat := func(ops ...minipy.Op) float64 {
		var n uint64
		for _, op := range ops {
			n += m.OpHist[op]
		}
		return float64(n) / float64(m.Ops)
	}
	mix.LoadStore = cat(minipy.OpLoadConst, minipy.OpLoadLocal, minipy.OpStoreLocal,
		minipy.OpLoadGlobal, minipy.OpStoreGlobal, minipy.OpLoadCell, minipy.OpStoreCell,
		minipy.OpLoadAttr, minipy.OpStoreAttr, minipy.OpIndexGet, minipy.OpIndexSet,
		minipy.OpSliceGet)
	mix.Arith = cat(minipy.OpBinary, minipy.OpUnary)
	mix.Branch = cat(minipy.OpJump, minipy.OpJumpIfFalse, minipy.OpJumpIfTrue,
		minipy.OpJumpIfFalseKeep, minipy.OpJumpIfTrueKeep, minipy.OpForIter)
	mix.Call = cat(minipy.OpCall, minipy.OpReturn)
	mix.Alloc = cat(minipy.OpBuildList, minipy.OpBuildTuple, minipy.OpBuildDict,
		minipy.OpBuildClass, minipy.OpMakeFunction)
	mix.Other = 1 - mix.LoadStore - mix.Arith - mix.Branch - mix.Call - mix.Alloc
	if mix.Other < 0 {
		mix.Other = 0
	}
	return mix
}
