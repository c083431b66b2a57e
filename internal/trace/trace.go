// Package trace is a low-overhead span tracer for the benchmarking
// harness. It records the experiment hierarchy (suite → benchmark →
// invocation → iteration → phase) as duration spans and supervisor
// activity (retries, injected faults, budget aborts, checkpoints) as
// instant events, all on the host's monotonic clock, and exports the
// whole run as Chrome trace-event JSON so it opens directly in Perfetto
// or chrome://tracing.
//
// Every method is a no-op on a nil *Tracer, so instrumented code needs no
// guards: the disabled path is a single nil check.
package trace

import (
	"sync"
	"time"
)

// Category names used by the harness. Exported so tests and external
// consumers filter on the same strings the instrumentation emits.
const (
	CatSuite      = "suite"
	CatBenchmark  = "benchmark"
	CatInvocation = "invocation"
	CatIteration  = "iteration"
	CatPhase      = "phase"
	CatSupervisor = "supervisor"
)

// Event is one recorded trace event. TS and Dur are offsets from the
// tracer's start on the monotonic clock, so events are immune to wall-time
// steps and sort correctly even across NTP adjustments.
type Event struct {
	Name  string
	Cat   string
	Phase string // "X" complete span, "i" instant event
	TS    time.Duration
	Dur   time.Duration // zero for instants
	Args  map[string]string
}

// Tracer accumulates events in memory. It is safe for concurrent use: the
// daemon's control plane reads a campaign's events while it runs.
type Tracer struct {
	mu     sync.Mutex
	start  time.Time
	events []Event
	meta   map[string]string
	// now is injectable for deterministic tests; it returns the offset
	// since start.
	now func() time.Duration
}

// New returns a tracer whose clock starts now.
func New() *Tracer {
	t := &Tracer{start: time.Now(), meta: map[string]string{}}  //benchlint:allow clock
	t.now = func() time.Duration { return time.Since(t.start) } //benchlint:allow clock
	return t
}

// NewWithClock returns a tracer driven by an explicit monotonic offset
// function (tests use this for reproducible timestamps).
func NewWithClock(now func() time.Duration) *Tracer {
	return &Tracer{start: time.Now(), meta: map[string]string{}, now: now} //benchlint:allow clock
}

// SetMeta records run-level metadata (producer, benchmark set, seed…)
// exported in the trace file's otherData section.
func (t *Tracer) SetMeta(key, value string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.meta[key] = value
	t.mu.Unlock()
}

// Span is an open duration span. End closes it and records the event; the
// zero Span is a no-op, matching the nil-tracer contract.
type Span struct {
	t     *Tracer
	name  string
	cat   string
	begin time.Duration
	args  map[string]string
}

// Begin opens a span. Args are attached at End time via SetArg or passed
// here as alternating key, value pairs.
func (t *Tracer) Begin(cat, name string, kv ...string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, name: name, cat: cat, begin: t.now(), args: kvMap(kv)}
}

// SetArg attaches one argument to the span before End.
func (s *Span) SetArg(key, value string) {
	if s.t == nil {
		return
	}
	if s.args == nil {
		s.args = map[string]string{}
	}
	s.args[key] = value
}

// End closes the span and records it.
func (s Span) End() {
	if s.t == nil {
		return
	}
	end := s.t.now()
	s.t.record(Event{
		Name: s.name, Cat: s.cat, Phase: "X",
		TS: s.begin, Dur: end - s.begin, Args: s.args,
	})
}

// Instant records a zero-duration event (a retry, a fault injection, a
// checkpoint save).
func (t *Tracer) Instant(cat, name string, kv ...string) {
	if t == nil {
		return
	}
	t.record(Event{Name: name, Cat: cat, Phase: "i", TS: t.now(), Args: kvMap(kv)})
}

func (t *Tracer) record(e Event) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Events returns a copy of everything recorded so far.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// Len reports the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// kvMap folds alternating key, value strings into a map (nil when empty;
// a trailing unpaired key is dropped).
func kvMap(kv []string) map[string]string {
	if len(kv) < 2 {
		return nil
	}
	m := make(map[string]string, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		m[kv[i]] = kv[i+1]
	}
	return m
}
