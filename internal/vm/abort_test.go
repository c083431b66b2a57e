package vm

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/minipy"
)

// loopSrc busy-loops long enough to cross many abort-poll intervals.
const loopSrc = `
i = 0
while i < 100000:
    i = i + 1
print(i)
`

// cancelAtOp is a Tracer that cancels its context when the VM executes its
// at-th op, so a test can measure how many ops the VM runs past a cancel.
type cancelAtOp struct {
	ops    uint64
	at     uint64
	cancel func()
}

func (c *cancelAtOp) OnEnter(*minipy.Code) {}
func (c *cancelAtOp) OnExit(*minipy.Code)  {}
func (c *cancelAtOp) OnOp(*minipy.Code, int, minipy.Op, uint64) {
	c.ops++
	if c.ops == c.at {
		c.cancel()
	}
}

func TestContextCancelStopsExecution(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	cause := errors.New("wall budget exceeded")
	const at = 3*abortPollInterval + 100 // mid-interval
	tr := &cancelAtOp{at: at, cancel: func() { cancel(cause) }}
	in := New(Config{Context: ctx, Tracer: tr})
	_, err := in.RunSource(loopSrc)
	if err == nil {
		t.Fatal("cancel must stop the loop")
	}
	var re *RuntimeError
	if !errors.As(err, &re) || re.Kind != "AbortError" || re.Msg != cause.Error() {
		t.Fatalf("want an AbortError carrying the cause, got %v", err)
	}
	if !IsBudgetError(err) {
		t.Fatal("AbortError must classify as a budget error")
	}
	// The abort fires within one poll interval of the cancel.
	if in.steps <= at || in.steps > at+abortPollInterval {
		t.Fatalf("abort latency: stopped at step %d, cancelled at %d", in.steps, at)
	}
}

// straddleSrc loops 16 steps per iteration on the elided stream, and its
// prefix puts every multiple of 16 — so every multiple of
// abortPollInterval — inside a dispatch that advances several steps: a poll
// keyed on steps%abortPollInterval == 0 never runs in it.
const straddleSrc = `
def spin(n):
    i = 1
    t = 0
    u = 0
    t = -t
    for j in range(n):
        t = -t
        t = t + i
        t = t + i
        u = 5
    return t
spin(100000)
`

// TestCancelStopsMultiStepDispatches: with its context cancelled before the
// call, an unobserved interpreter stops straddleSrc at the first poll,
// which comes as soon as the step count crosses abortPollInterval.
func TestCancelStopsMultiStepDispatches(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	cause := errors.New("cancelled before the run")
	cancel(cause)
	in := New(Config{Context: ctx})
	_, err := in.RunSource(straddleSrc)
	var re *RuntimeError
	if !errors.As(err, &re) || re.Kind != "AbortError" || re.Msg != cause.Error() {
		t.Fatalf("want an AbortError carrying the cause, got %v", err)
	}
	if in.steps < abortPollInterval || in.steps > abortPollInterval+3 {
		t.Fatalf("stopped at step %d, want the first poll at %d..%d", in.steps, abortPollInterval, abortPollInterval+3)
	}
}

func TestLiveContextCleanRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := New(Config{Context: ctx})
	if in.cancel == nil {
		t.Fatal("a cancellable context must be polled")
	}
	if _, err := in.RunSource(loopSrc); err != nil {
		t.Fatal(err)
	}
	// A context that can never end is not polled at all.
	if in := New(Config{Context: context.Background()}); in.cancel != nil {
		t.Fatal("an uncancellable context must leave the poll off")
	}
}

func TestIsBudgetErrorClassification(t *testing.T) {
	in := New(Config{MaxSteps: 100})
	_, err := in.RunSource(loopSrc)
	if err == nil {
		t.Fatal("step budget must trip")
	}
	if !IsBudgetError(err) {
		t.Fatalf("step-budget error must classify as budget: %v", err)
	}
	if IsBudgetError(typeErr("not a budget problem")) {
		t.Fatal("TypeError must not classify as budget")
	}
	if IsBudgetError(fmt.Errorf("plain error")) {
		t.Fatal("non-RuntimeError must not classify as budget")
	}
	if IsBudgetError(fmt.Errorf("wrapped: %w", abortErr("x"))) != true {
		t.Fatal("wrapped AbortError must classify as budget")
	}
}
