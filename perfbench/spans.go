package main

import (
	"sort"
	"time"

	"repro/internal/trace"
)

// reconcileTol is the tolerance of the traced run's reconciliation: per
// op, the layer self times must sum to the op time within this share of
// it, and the time no layer span covers (the benchmark's own glue) must
// stay below it too.
const reconcileTol = 0.05

// rootLayer is the layer the root span's self time is charged to: time
// inside an op that no layer span covers.
const rootLayer = "unattributed"

// span is one interval of a traced op on the benchmark's clock, charged
// to a layer. Parent indexes the enclosing span; the root has -1.
type span struct {
	layer      string
	start, end time.Duration
	parent     int
}

// opTrace is the record of one op. Every op gets one, so ops read one
// clock; only an op of a traced run (on) records spans and values, so an
// untraced op pays for nothing but the clock reads.
type opTrace struct {
	on    bool
	t0    time.Time
	spans []span
	// vals are per-op quantities that are not spans: step counts, bytes,
	// and times read from the program's own trace events.
	vals map[string]float64
}

func newOpTrace(on bool) *opTrace {
	t := &opTrace{on: on, t0: time.Now()}
	if on {
		t.spans = []span{{layer: rootLayer, parent: -1}}
		t.vals = map[string]float64{}
	}
	return t
}

// now is the offset since the op started.
func (t *opTrace) now() time.Duration { return time.Since(t.t0) }

// add records the span [start, end) under parent and returns its index
// (-1 when the op is untraced).
func (t *opTrace) add(layer string, parent int, start, end time.Duration) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{layer: layer, start: start, end: end, parent: parent})
	return len(t.spans) - 1
}

// since records the span from start until now under parent.
func (t *opTrace) since(layer string, parent int, start time.Duration) int {
	return t.add(layer, parent, start, t.now())
}

// val adds v to the op's named value.
func (t *opTrace) val(name string, v float64) {
	if t.on {
		t.vals[name] += v
	}
}

// finish closes the root span and returns the op time.
func (t *opTrace) finish() time.Duration {
	d := t.now()
	if t.on {
		t.spans[0].end = d
	}
	return d
}

// addEvents records the program's own Observer spans of the given
// category as children of parent. base is the op-clock offset at which
// the tracer that recorded them started.
func (t *opTrace) addEvents(events []trace.Event, cat, layer string, parent int, base time.Duration) {
	for _, ev := range events {
		if ev.Cat == cat && ev.Phase == "X" {
			t.add(layer, parent, base+ev.TS, base+ev.TS+ev.Dur)
		}
	}
}

// eventTime sums the durations of the Observer spans with the given
// category and name (any name when name is empty).
func eventTime(events []trace.Event, cat, name string) time.Duration {
	var d time.Duration
	for _, ev := range events {
		if ev.Cat == cat && (name == "" || ev.Name == name) && ev.Phase == "X" {
			d += ev.Dur
		}
	}
	return d
}

// spanSelf is every span's self time: its duration minus the part of it
// that its children cover. Only a span that ends before it starts has a
// negative one.
func spanSelf(spans []span) []time.Duration {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start - covered(s, children[i])
	}
	return self
}

// selfTimes charges every span's self time to the span's layer.
func selfTimes(spans []span) map[string]time.Duration {
	self := map[string]time.Duration{}
	for i, d := range spanSelf(spans) {
		self[spans[i].layer] += d
	}
	return self
}

// covered returns how much of s the union of kids covers.
func covered(s span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.start, s.start), min(k.end, s.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, hi time.Duration
	hi = s.start
	for _, v := range ivs {
		if v.a > hi {
			hi = v.a
		}
		if v.b > hi {
			total += v.b - hi
			hi = v.b
		}
	}
	return total
}

// reconciliation sums one traced pass: the op time and the part of it no
// layer span covers (the roots' self time).
type reconciliation struct {
	op, unattributed time.Duration
	// worst is the largest per-op |Σ |span self times| − op time| / op
	// time; overlapping siblings, a child sticking out of its parent and
	// a span that ends before it starts make it positive.
	worst float64
}

func (r *reconciliation) addOp(t *opTrace) {
	op := t.spans[0].end - t.spans[0].start
	var self time.Duration
	for _, d := range spanSelf(t.spans) {
		self += max(d, -d)
	}
	r.op += op
	r.unattributed += selfTimes(t.spans)[rootLayer]
	if op > 0 {
		diff := self - op
		if diff < 0 {
			diff = -diff
		}
		r.worst = max(r.worst, float64(diff)/float64(op))
	}
}

// unattributedFrac is the share of op time no layer span covers.
func (r reconciliation) unattributedFrac() float64 {
	if r.op == 0 {
		return 0
	}
	return float64(r.unattributed) / float64(r.op)
}

// ok reports whether the pass reconciles within reconcileTol.
func (r reconciliation) ok() bool {
	return r.worst <= reconcileTol && r.unattributedFrac() <= reconcileTol
}
