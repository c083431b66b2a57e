package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// workload is one closed-loop traffic mix. Each client runs its fixed op
// list in whole rotations; the seed reaches only the inputs of an op (its
// campaign or trial seeds), never which ops run.
type workload interface {
	// setUp builds a fresh instance and returns its set-up time in
	// seconds. The ops that follow run on what the last call built.
	setUp() (float64, error)
	// setupReps is how many batches of how many fresh set-ups a run times
	// for setup_s.
	setupReps() (batches, perBatch int)
	// nominalOpsPerS is the rate, in ops per second over all clients, at
	// which a 2-vCPU reference host runs the workload. It turns a run's
	// seconds into a fixed number of rotations.
	nominalOpsPerS() float64
	// rotation is client c's fixed op list.
	rotation(c int) []string
	// op runs op i of client c's rotation and checks its output. first is
	// the op-clock time at which its first result reached the caller.
	op(c, i int, t *opTrace) (first time.Duration, err error)
	// check runs the output checks that need the whole timed phase and
	// returns how many ops fail them.
	check() (int, error)
	// layers turns a traced pass, and its setup_s, into per-layer
	// metrics.
	layers(p *phase, setupS float64) map[string]float64
	close()
}

// replayer is a workload that re-runs part of a traced op, outside the
// op's time, to split it finer than its spans can.
type replayer interface {
	replay(c, i int, t *opTrace)
}

// traceMode selects which rotations of a phase are traced.
type traceMode int

const (
	traceOff traceMode = iota
	traceAll
	// traceAlternate traces every second rotation, so traced and untraced
	// rotations share the host's slow and fast phases.
	traceAlternate
)

// maxErrs is how many op errors a phase keeps to report.
const maxErrs = 5

// phase is the outcome of one timed phase.
type phase struct {
	attempted, failed int
	// lat and first are per-op times in ms.
	lat, first []float64
	elapsed    time.Duration
	allocBytes uint64
	traces     []*opTrace
	// ops and busy per rotation kind (0 untraced, 1 traced) give the
	// tracing overhead. busy sums op times only: a traced op's replay is
	// analysis, not tracing.
	ops  [2]int
	busy [2]time.Duration
	// gcCycles, gcCPU and cpu are the runtime's GC cycles, GC CPU seconds
	// and all CPU seconds over the phase.
	gcCycles   uint64
	gcCPU, cpu float64
	errs       []string
}

// runPhase runs every client in its own goroutine, each through rotations
// from to to of its op list. The work is fixed, so two runs of one
// workload, on any code, run the same ops.
func runPhase(w workload, clients, from, to int, mode traceMode) *phase {
	p := &phase{}
	var mu sync.Mutex
	rt := readRuntime()
	start := time.Now()
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ops := w.rotation(c)
			for rot := from; rot < to; rot++ {
				traced := mode == traceAll || (mode == traceAlternate && rot%2 == 1)
				kind := 0
				if traced {
					kind = 1
				}
				for i := range ops {
					t := newOpTrace(traced)
					first, err := w.op(c, i, t)
					d := t.finish()
					if rp, ok := w.(replayer); ok && traced && err == nil {
						rp.replay(c, i, t)
					}
					mu.Lock()
					p.attempted++
					p.ops[kind]++
					p.busy[kind] += d
					p.lat = append(p.lat, ms(d))
					p.first = append(p.first, ms(first))
					if err != nil {
						p.failed++
						if len(p.errs) < maxErrs {
							p.errs = append(p.errs, fmt.Sprintf("%s: %v", ops[i], err))
						}
					} else if traced {
						p.traces = append(p.traces, t)
					}
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	end := readRuntime()
	p.allocBytes = end.alloc - rt.alloc
	p.gcCycles = end.gcCycles - rt.gcCycles
	p.gcCPU = end.gcCPU - rt.gcCPU
	p.cpu = end.cpu - rt.cpu
	return p
}

// add appends q, a later part of the same phase, to p.
func (p *phase) add(q *phase) {
	p.attempted += q.attempted
	p.failed += q.failed
	p.lat = append(p.lat, q.lat...)
	p.first = append(p.first, q.first...)
	p.elapsed += q.elapsed
	p.allocBytes += q.allocBytes
	p.traces = append(p.traces, q.traces...)
	for k := range p.ops {
		p.ops[k] += q.ops[k]
		p.busy[k] += q.busy[k]
	}
	p.gcCycles += q.gcCycles
	p.gcCPU += q.gcCPU
	p.cpu += q.cpu
	if room := maxErrs - len(p.errs); room > 0 {
		p.errs = append(p.errs, q.errs[:min(room, len(q.errs))]...)
	}
}

// gcCPUFrac is the share of the phase's CPU time the GC used.
func (p *phase) gcCPUFrac() float64 {
	if p.cpu <= 0 {
		return 0
	}
	return p.gcCPU / p.cpu
}

// setUpAndRun times the workload's set-up and runs its timed phase,
// interleaved: each batch of fresh set-ups is followed by its share of the
// phase's rotations, so the set-up samples span the same stretch of the
// host's fast and slow states as the ops. setup_s is the median of the
// batches' mean set-up times.
func setUpAndRun(w workload, clients, rotations int, mode traceMode) (float64, *phase, error) {
	batches, perBatch := w.setupReps()
	means := make([]float64, 0, batches)
	p := &phase{}
	from := 0
	for k := range batches {
		m, err := meanSetup(perBatch, w.setUp)
		if err != nil {
			return 0, nil, fmt.Errorf("set-up: %w", err)
		}
		means = append(means, m)
		to := rotations * (k + 1) / batches
		runtime.GC()
		p.add(runPhase(w, clients, from, to, mode))
		from = to
	}
	return median(means), p, nil
}

// rotationsFor is how many whole rotations every client runs so that a
// run does about budget's worth of ops at the workload's nominal rate,
// and at least minOps ops and two rotations in all.
func rotationsFor(w workload, clients int, budget time.Duration, minOps int) int {
	perRotation := 0
	for c := range clients {
		perRotation += len(w.rotation(c))
	}
	want := max(budget.Seconds()*w.nominalOpsPerS(), float64(minOps))
	return max(2, int(math.Ceil(want/float64(perRotation))))
}

// overheadFrac is the share of throughput that tracing costs, from the
// traced and untraced rotations of an alternating phase.
func (p *phase) overheadFrac() float64 {
	if p.ops[0] == 0 || p.ops[1] == 0 {
		return 0
	}
	untraced := float64(p.ops[0]) / p.busy[0].Seconds()
	traced := float64(p.ops[1]) / p.busy[1].Seconds()
	return 1 - traced/untraced
}

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	alloc, gcCycles uint64
	gcCPU, cpu      float64
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeSample{
		alloc:    s[0].Value.Uint64(),
		gcCycles: s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		cpu:      s[3].Value.Float64(),
	}
}

// heapAllocs is the cumulative count of heap bytes allocated.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
