package benchfmt

import "fmt"

// MemThresholds is the memory-regression gate policy. A candidate
// benchmark fails the gate only when its growth over the baseline clears
// BOTH the relative threshold and the absolute practical-effect floor:
// the floor keeps count jitter on already-lean benchmarks (13 → 15
// allocs/op is +15% but two allocations) from failing CI, while the
// relative threshold keeps large benchmarks from absorbing a real
// regression inside a generous absolute budget.
type MemThresholds struct {
	// MaxAllocGrowthPct is the allowed allocs_per_op growth in percent
	// (negative = allocs are not gated).
	MaxAllocGrowthPct float64
	// MaxBytesGrowthPct is the allowed bytes_per_op growth in percent
	// (negative = bytes are not gated).
	MaxBytesGrowthPct float64
	// AllocFloor is the absolute allocs_per_op growth below which a
	// benchmark never fails, regardless of percentage.
	AllocFloor int64
	// BytesFloor is the same floor for bytes_per_op.
	BytesFloor int64
}

// DefaultMemThresholds is the CI policy: 10% alloc growth, 25% bytes
// growth (size classes round, so bytes wobble more than counts), floors
// of 16 allocs and 2 KiB. Go-version variance on these microkernels is
// single allocations, well under both floors.
func DefaultMemThresholds() MemThresholds {
	return MemThresholds{
		MaxAllocGrowthPct: 10,
		MaxBytesGrowthPct: 25,
		AllocFloor:        16,
		BytesFloor:        2048,
	}
}

// MemViolation is one benchmark metric that grew past the gate.
type MemViolation struct {
	Pkg       string
	Name      string
	Metric    string // "allocs/op" or "B/op"
	Base      int64
	Cand      int64
	GrowthPct float64
}

func (v MemViolation) String() string {
	name := v.Name
	if v.Pkg != "" {
		name = v.Pkg + "." + name
	}
	return fmt.Sprintf("%s: %s grew %d -> %d (+%.1f%%)",
		name, v.Metric, v.Base, v.Cand, v.GrowthPct)
}

// MemGate compares every benchmark present in both documents, matched by
// package and name (Doc.Entry), and returns the metrics that regressed
// past the thresholds. Benchmarks new in the candidate (no baseline entry)
// and entries without memory stats (no -benchmem, both sides zero) are
// skipped: the gate locks in wins on the committed series, it does not
// police additions.
func MemGate(base, cand *Doc, th MemThresholds) []MemViolation {
	var out []MemViolation
	for _, c := range cand.Benchmarks {
		b, ok := base.Entry(c.Pkg, c.Name)
		if !ok {
			continue
		}
		if th.MaxAllocGrowthPct >= 0 {
			if v, bad := gateMetric(c, "allocs/op", b.AllocsPerOp, c.AllocsPerOp,
				th.MaxAllocGrowthPct, th.AllocFloor); bad {
				out = append(out, v)
			}
		}
		if th.MaxBytesGrowthPct >= 0 {
			if v, bad := gateMetric(c, "B/op", b.BytesPerOp, c.BytesPerOp,
				th.MaxBytesGrowthPct, th.BytesFloor); bad {
				out = append(out, v)
			}
		}
	}
	return out
}

// gateMetric applies the two-sided policy to one metric: fail only when
// the absolute growth clears the floor AND the relative growth clears the
// percentage (a zero baseline with growth past the floor always fails —
// there is no meaningful percentage to compare).
func gateMetric(e Entry, metric string, base, cand int64, maxPct float64, floor int64) (MemViolation, bool) {
	growth := cand - base
	if growth <= floor {
		return MemViolation{}, false
	}
	pct := 0.0
	if base > 0 {
		pct = 100 * float64(growth) / float64(base)
		if pct <= maxPct {
			return MemViolation{}, false
		}
	}
	return MemViolation{Pkg: e.Pkg, Name: e.Name, Metric: metric, Base: base, Cand: cand, GrowthPct: pct}, true
}
