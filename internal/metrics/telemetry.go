package metrics

import (
	"runtime"
	"time"
)

// Self-telemetry: the measurement apparatus measuring itself. Timer
// calibration quantifies what the host clock can resolve and what one
// timestamp costs; GC sampling quantifies how much the Go runtime
// interfered with an invocation. Both ride in the metrics snapshot so every
// archived result carries its own error bars on the apparatus.

// Metric names exported for tests and downstream consumers.
const (
	TimerResolutionNs = "harness_timer_resolution_ns"
	TimerOverheadNs   = "harness_timer_overhead_ns"

	GCPauseTotalNs  = "harness_gc_pause_ns_total"
	GCCycles        = "harness_gc_cycles_total"
	HeapAllocBytes  = "harness_heap_alloc_bytes"
	InvocationAlloc = "harness_invocation_alloc_bytes"
	InvocationHost  = "harness_invocation_host_seconds"
)

// Calibration is the measured timer characteristics.
type Calibration struct {
	// ResolutionNs is the smallest positive delta observed between
	// consecutive clock readings (the effective tick).
	ResolutionNs float64
	// OverheadNs is the mean cost of one clock reading.
	OverheadNs float64
}

// CalibrateTimer measures the host monotonic clock and, when reg is
// non-nil, records the results as gauges. The paper's methodology requires
// knowing the timer floor before trusting sub-microsecond effects.
func CalibrateTimer(reg *Registry) Calibration {
	const resolutionProbes, overheadCalls = 2000, 4096
	minDelta := time.Duration(1<<63 - 1)
	prev := time.Now() //benchlint:allow clock
	for i := 0; i < resolutionProbes; i++ {
		now := time.Now() //benchlint:allow clock
		if d := now.Sub(prev); d > 0 && d < minDelta {
			minDelta = d
		}
		prev = now
	}
	begin := time.Now() //benchlint:allow clock
	for i := 0; i < overheadCalls; i++ {
		_ = time.Now() //benchlint:allow clock
	}
	elapsed := time.Since(begin) //benchlint:allow clock

	cal := Calibration{
		ResolutionNs: float64(minDelta.Nanoseconds()),
		OverheadNs:   float64(elapsed.Nanoseconds()) / float64(overheadCalls),
	}
	reg.Gauge(TimerResolutionNs, "smallest observed positive monotonic-clock delta").Set(cal.ResolutionNs)
	reg.Gauge(TimerOverheadNs, "mean cost of one clock reading").Set(cal.OverheadNs)
	return cal
}

// GCSampler brackets a region of work (one invocation) and attributes the
// Go runtime's GC and allocation activity inside it to the registry. Usage:
//
//	s := metrics.StartGCSample(reg)
//	... run the invocation ...
//	s.Stop()
//
// A nil-registry sampler skips ReadMemStats entirely — the stats read stops
// the world briefly, so the disabled path must not pay it.
type GCSampler struct {
	reg    *Registry
	before runtime.MemStats
	begin  time.Time
}

// StartGCSample snapshots runtime memory state at region entry.
func StartGCSample(reg *Registry) *GCSampler {
	if reg == nil {
		return nil
	}
	s := &GCSampler{reg: reg, begin: time.Now()} //benchlint:allow clock
	runtime.ReadMemStats(&s.before)
	return s
}

// Stop snapshots region exit and records the deltas: GC pause time, GC
// cycles, bytes allocated, and host wall time of the region.
func (s *GCSampler) Stop() {
	if s == nil {
		return
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	host := time.Since(s.begin).Seconds() //benchlint:allow clock

	s.reg.Counter(GCPauseTotalNs, "GC stop-the-world pause time inside invocations").
		Add(after.PauseTotalNs - s.before.PauseTotalNs)
	s.reg.Counter(GCCycles, "GC cycles completed inside invocations").
		Add(uint64(after.NumGC - s.before.NumGC))
	s.reg.Gauge(HeapAllocBytes, "live heap bytes after last invocation").
		Set(float64(after.HeapAlloc))
	s.reg.Histogram(InvocationAlloc, "bytes allocated per invocation",
		[]float64{1 << 10, 64 << 10, 1 << 20, 16 << 20, 256 << 20}).
		Observe(float64(after.TotalAlloc - s.before.TotalAlloc))
	s.reg.Histogram(InvocationHost, "host wall seconds per invocation",
		[]float64{1e-4, 1e-3, 1e-2, 1e-1, 1, 10}).
		Observe(host)
}
