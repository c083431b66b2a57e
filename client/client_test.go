package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/controlapi"
	"repro/internal/exitcode"
)

// startDaemon runs a real control-plane server behind httptest and
// returns a client pointed at it.
func startDaemon(t *testing.T, mutate func(*controlapi.Options)) (*controlapi.Server, *Client) {
	t.Helper()
	opts := controlapi.Options{DataDir: t.TempDir()}
	if mutate != nil {
		mutate(&opts)
	}
	s, err := controlapi.New(opts)
	if err != nil {
		t.Fatalf("controlapi.New: %v", err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, New(ts.URL, WithTenant("client-test"))
}

func tinySpec() CampaignSpec {
	return CampaignSpec{
		Benchmarks:  []string{"fib"},
		Invocations: 2,
		Iterations:  3,
		Seed:        42,
		Noise:       "quiet",
	}
}

// TestSubmitWaitGet drives the happy path end to end: submit, stream to
// the terminal state, fetch results, and observe progress events.
func TestSubmitWaitGet(t *testing.T) {
	_, cl := startDaemon(t, nil)
	ctx := context.Background()

	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatalf("Health: %v", err)
	}
	if h.State != "serving" {
		t.Fatalf("health = %+v", h)
	}

	st, err := cl.Submit(ctx, tinySpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.Tenant != "client-test" {
		t.Errorf("tenant header not applied: %+v", st)
	}

	var seen []string
	final, err := cl.Wait(ctx, st.ID, func(ev Event) { seen = append(seen, ev.Type) })
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != controlapi.StateDone || len(final.Results) != 1 {
		t.Fatalf("final = state %s, %d results", final.State, len(final.Results))
	}
	if final.Results[0].Invocations[0].Checksum != "1597" {
		t.Errorf("fib checksum = %q", final.Results[0].Invocations[0].Checksum)
	}
	var states, benches int
	for _, typ := range seen {
		switch typ {
		case controlapi.EventState:
			states++
		case controlapi.EventBenchmark:
			benches++
		}
	}
	if states < 3 || benches != 2 {
		t.Errorf("event mix: %d state, %d benchmark (want >=3, 2): %v", states, benches, seen)
	}

	list, err := cl.List(ctx)
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list = %+v", list)
	}
}

// TestAPIErrorDecoding checks that server rejections surface as *APIError
// with the taxonomy exit code a CLI should propagate.
func TestAPIErrorDecoding(t *testing.T) {
	_, cl := startDaemon(t, nil)
	ctx := context.Background()

	spec := tinySpec()
	spec.Benchmarks = []string{"no-such-benchmark"}
	_, err := cl.Submit(ctx, spec)
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *APIError, got %T: %v", err, err)
	}
	if apiErr.Status != 400 || apiErr.ExitCode() != exitcode.Usage {
		t.Fatalf("apiErr = %+v (exit %d)", apiErr, apiErr.ExitCode())
	}
	if !strings.Contains(apiErr.Message, "no-such-benchmark") {
		t.Errorf("message = %q", apiErr.Message)
	}

	if _, err := cl.Get(ctx, "c999999"); err == nil {
		t.Fatal("Get of unknown id must error")
	} else if !errors.As(err, &apiErr) || apiErr.ExitCode() != exitcode.Usage {
		t.Fatalf("unknown-id error = %v", err)
	}
}

// TestWaitDegradedCampaign checks the outcome taxonomy: a campaign that
// finishes below quorum comes back as *CampaignError with exit 4 and the
// partial results attached.
func TestWaitDegradedCampaign(t *testing.T) {
	_, cl := startDaemon(t, nil)
	ctx := context.Background()
	spec := tinySpec()
	spec.Invocations = 3
	spec.Faults = "panic=1.0" // every attempt dies; quorum is unreachable
	spec.Quorum = 1
	st, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	final, err := cl.Wait(ctx, st.ID, nil)
	var ce *CampaignError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CampaignError, got %T: %v", err, err)
	}
	if ce.ExitCode() != exitcode.Degraded || final.State != controlapi.StateDegraded {
		t.Fatalf("state %s exit %d, want degraded/4", final.State, ce.ExitCode())
	}
}

// TestCancelViaClient cancels a queued campaign on a drained server (no
// executor will pick it up) and verifies the terminal state round-trips.
func TestCancelViaClient(t *testing.T) {
	s, cl := startDaemon(t, func(o *controlapi.Options) { o.Slots = 1 })
	ctx := context.Background()
	// Park the only executor on a long campaign so the next one stays queued.
	long := tinySpec()
	long.Benchmarks = []string{"fib", "nbody", "spectralnorm"}
	long.Invocations = 6
	long.Iterations = 60
	blocker, err := cl.Submit(ctx, long)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := cl.Submit(ctx, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl.Cancel(ctx, queued.ID)
	if err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if got.State != controlapi.StateCancelled {
		t.Fatalf("cancelled state = %s", got.State)
	}
	if _, err := cl.Cancel(ctx, blocker.ID); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	if _, err := cl.Wait(ctx, blocker.ID, nil); err == nil {
		t.Fatal("waiting on a cancelled campaign must error")
	}
	_ = s
}

// TestParseSSE pins the client-side SSE framing against hand-built input,
// including multi-event bodies and ignored unknown lines.
// sseBody is two daemon events after a retry line, which the parser
// skips.
const sseBody = "retry: 100\n" +
	"id: 0\nevent: state\ndata: {\"state\":\"queued\"}\n\n" +
	"id: 1\nevent: benchmark\ndata: {\"benchmark\":\"fib\"}\n\n"

func TestParseSSE(t *testing.T) {
	var got []Event
	err := parseSSE(strings.NewReader(sseBody), func(ev Event) error {
		got = append(got, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Seq != 0 || got[0].Type != "state" || got[1].Seq != 1 || got[1].Type != "benchmark" {
		t.Fatalf("parsed = %+v", got)
	}
	var payload struct {
		Benchmark string `json:"benchmark"`
	}
	if err := json.Unmarshal(got[1].Data, &payload); err != nil || payload.Benchmark != "fib" {
		t.Fatalf("payload = %+v, %v", payload, err)
	}
}

// FuzzParseSSE checks parseSSE on arbitrary bytes: no input panics it,
// and a stream in memory fails only on a line past the scanner's limit.
// Events written in the daemon's framing (controlapi's handleEvents:
// "id: %d\nevent: %s\ndata: %s\n\n", with compact-JSON data and a type
// without CR or LF), here one per line of the input, parse back to the
// same events in order. On both streams, an error the callback returns
// at its (stop mod n)-th call of n stops the parse and is returned.
func FuzzParseSSE(f *testing.F) {
	f.Add([]byte(sseBody), 0, uint8(1))
	f.Add([]byte("id: 7\r\nevent: state\r\ndata: {}\r\n\r\ndata: x\n"), -1, uint8(0))
	f.Fuzz(func(t *testing.T, stream []byte, seq int, stop uint8) {
		all, err := parseAll(stream)
		if err != nil && !errors.Is(err, bufio.ErrTooLong) {
			t.Fatalf("parse: %v", err)
		}
		checkStops(t, stream, all, stop)

		// The round trip keeps every line short of the scanner's limit: a
		// JSON string is at most six bytes per input byte.
		if len(stream) > 1<<16 {
			return
		}
		var want []Event
		var framed bytes.Buffer
		for i, line := range bytes.Split(stream, []byte("\n")) {
			data, err := json.Marshal(map[string]string{"line": string(line)})
			if err != nil {
				t.Fatal(err)
			}
			ev := Event{Seq: seq + i, Type: strings.ReplaceAll(string(line), "\r", ""), Data: data}
			want = append(want, ev)
			fmt.Fprintf(&framed, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, ev.Data)
		}
		got, err := parseAll(framed.Bytes())
		if err != nil {
			t.Fatalf("parse of the framed events: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("framed %d events, parsed %d", len(want), len(got))
		}
		for i := range want {
			if got[i].Seq != want[i].Seq || got[i].Type != want[i].Type || !bytes.Equal(got[i].Data, want[i].Data) {
				t.Fatalf("event %d: parsed %+v, framed %+v", i, got[i], want[i])
			}
		}
		checkStops(t, framed.Bytes(), got, stop)
	})
}

// parseAll returns every event parseSSE delivers from stream, and its
// error.
func parseAll(stream []byte) ([]Event, error) {
	var evs []Event
	err := parseSSE(bytes.NewReader(stream), func(ev Event) error {
		evs = append(evs, ev)
		return nil
	})
	return evs, err
}

// checkStops parses stream again with a callback that fails at its
// (stop mod n)-th call, where all is the n events a full parse delivers:
// the parse must return that error and deliver nothing after it.
func checkStops(t *testing.T, stream []byte, all []Event, stop uint8) {
	t.Helper()
	if len(all) == 0 {
		return
	}
	errStop := errors.New("stop")
	k := int(stop) % len(all)
	calls := 0
	err := parseSSE(bytes.NewReader(stream), func(ev Event) error {
		calls++
		if calls > k+1 {
			t.Fatalf("callback called again after it returned an error")
		}
		if ev.Seq != all[calls-1].Seq || ev.Type != all[calls-1].Type || !bytes.Equal(ev.Data, all[calls-1].Data) {
			t.Fatalf("call %d: %+v, full parse %+v", calls, ev, all[calls-1])
		}
		if calls == k+1 {
			return errStop
		}
		return nil
	})
	if !errors.Is(err, errStop) || calls != k+1 {
		t.Fatalf("callback failing at call %d of %d: parse returned %v after %d calls", k+1, len(all), err, calls)
	}
}
