package controlapi

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/exitcode"
)

// newTestServer builds a Server on a scratch data dir (executors stopped
// unless the test calls Start) and its httptest front end.
func newTestServer(t *testing.T, mutate func(*Options)) (*Server, *httptest.Server) {
	t.Helper()
	opts := Options{DataDir: t.TempDir(), Logf: t.Logf}
	if mutate != nil {
		mutate(&opts)
	}
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// tinySpec is the cheapest valid campaign: one benchmark, 2×3 design.
func tinySpec() CampaignSpec {
	return CampaignSpec{
		Benchmarks:  []string{"fib"},
		Invocations: 2,
		Iterations:  3,
		Seed:        42,
		Noise:       "quiet",
	}
}

func postJSON(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// decodeAPIError decodes the uniform error envelope and closes the body.
func decodeEnvelope(t *testing.T, resp *http.Response) APIError {
	t.Helper()
	defer resp.Body.Close()
	var env errorBody
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("error response is not the envelope: %v", err)
	}
	return env.Error
}

// submit posts a spec and returns the accepted status, failing on non-202.
func submit(t *testing.T, ts *httptest.Server, spec CampaignSpec) CampaignStatus {
	t.Helper()
	resp := postJSON(t, ts.URL+"/api/v1/campaigns", mustMarshal(t, spec))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, body)
	}
	var st CampaignStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	return st
}

// stateWatcher returns an Options hook and a channel of (id, state)
// transitions for tests that must synchronize with the executor.
type transition struct {
	id    string
	state State
}

func stateWatcher() (func(string, State), chan transition) {
	ch := make(chan transition, 64)
	return func(id string, st State) { ch <- transition{id, st} }, ch
}

func waitFor(t *testing.T, ch chan transition, id string, want State) {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case tr := <-ch:
			if tr.id == id && tr.state == want {
				return
			}
			if tr.id == id && tr.state.Terminal() {
				t.Fatalf("campaign %s reached terminal state %s, want %s", id, tr.state, want)
			}
		case <-deadline:
			t.Fatalf("campaign %s never reached state %s", id, want)
		}
	}
}

// TestSubmitRejections drives every rejection path of the submit handler
// and asserts both the HTTP status and the taxonomy exit code carried in
// the uniform error envelope.
func TestSubmitRejections(t *testing.T) {
	cases := []struct {
		name       string
		body       func(t *testing.T) []byte
		mutate     func(*Options)
		prepare    func(t *testing.T, s *Server, ts *httptest.Server)
		wantStatus int
		wantIn     string
	}{
		{
			name:       "bad JSON",
			body:       func(t *testing.T) []byte { return []byte("{not json") },
			wantStatus: http.StatusBadRequest,
			wantIn:     "decoding campaign spec",
		},
		{
			name:       "unknown field",
			body:       func(t *testing.T) []byte { return []byte(`{"benchmarks":["fib"],"bogus":1}`) },
			wantStatus: http.StatusBadRequest,
			wantIn:     "bogus",
		},
		{
			name: "retired workers field",
			body: func(t *testing.T) []byte {
				return []byte(`{"benchmarks":["fib"],"workers":4}`)
			},
			wantStatus: http.StatusBadRequest,
			wantIn:     "workers",
		},
		{
			name: "no benchmarks",
			body: func(t *testing.T) []byte {
				return mustMarshal(t, CampaignSpec{})
			},
			wantStatus: http.StatusBadRequest,
			wantIn:     "no benchmarks",
		},
		{
			name: "unknown benchmark",
			body: func(t *testing.T) []byte {
				s := tinySpec()
				s.Benchmarks = []string{"no-such-benchmark"}
				return mustMarshal(t, s)
			},
			wantStatus: http.StatusBadRequest,
			wantIn:     "unknown benchmark",
		},
		{
			name: "unknown mode",
			body: func(t *testing.T) []byte {
				s := tinySpec()
				s.Mode = "turbo"
				return mustMarshal(t, s)
			},
			wantStatus: http.StatusBadRequest,
			wantIn:     "unknown mode",
		},
		{
			name: "retired stack vm",
			body: func(t *testing.T) []byte {
				s := tinySpec()
				s.VM = "stack"
				return mustMarshal(t, s)
			},
			wantStatus: http.StatusBadRequest,
			wantIn:     "unknown vm",
		},
		{
			name: "retired opt level 3",
			body: func(t *testing.T) []byte {
				s := tinySpec()
				s.Opt = 3
				return mustMarshal(t, s)
			},
			wantStatus: http.StatusBadRequest,
			wantIn:     "opt level 3 out of range 0..2",
		},
		{
			name: "design too large",
			body: func(t *testing.T) []byte {
				s := tinySpec()
				s.Invocations = 1 << 62
				return mustMarshal(t, s)
			},
			wantStatus: http.StatusBadRequest,
			wantIn:     "exceeds the limit",
		},
		{
			name: "negative wall budget",
			body: func(t *testing.T) []byte {
				s := tinySpec()
				s.WallBudgetMs = -1
				return mustMarshal(t, s)
			},
			wantStatus: http.StatusBadRequest,
			wantIn:     "negative wall_budget_ms",
		},
		{
			name: "negative watchdog",
			body: func(t *testing.T) []byte {
				s := tinySpec()
				s.WatchdogMs = -5
				return mustMarshal(t, s)
			},
			wantStatus: http.StatusBadRequest,
			wantIn:     "negative watchdog_ms",
		},
		{
			name: "bad fault spec",
			body: func(t *testing.T) []byte {
				s := tinySpec()
				s.Faults = "gamma-rays=2.0"
				return mustMarshal(t, s)
			},
			wantStatus: http.StatusBadRequest,
		},
		{
			name:   "tenant quota exceeded",
			body:   func(t *testing.T) []byte { return mustMarshal(t, tinySpec()) },
			mutate: func(o *Options) { o.TenantQuota = 1 },
			prepare: func(t *testing.T, s *Server, ts *httptest.Server) {
				// Executors are not started, so this one stays in flight.
				submit(t, ts, tinySpec())
			},
			wantStatus: http.StatusTooManyRequests,
			wantIn:     "quota",
		},
		{
			name: "queue full",
			body: func(t *testing.T) []byte {
				s := tinySpec()
				s.Tenant = "other" // dodge the tenant quota; hit the queue bound
				return mustMarshal(t, s)
			},
			mutate: func(o *Options) { o.QueueDepth = 1 },
			prepare: func(t *testing.T, s *Server, ts *httptest.Server) {
				submit(t, ts, tinySpec())
			},
			wantStatus: http.StatusTooManyRequests,
			wantIn:     "queue full",
		},
		{
			name:       "daemon draining",
			body:       func(t *testing.T) []byte { return mustMarshal(t, tinySpec()) },
			prepare:    func(t *testing.T, s *Server, ts *httptest.Server) { s.Drain() },
			wantStatus: http.StatusServiceUnavailable,
			wantIn:     "draining",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, tc.mutate)
			if tc.prepare != nil {
				tc.prepare(t, s, ts)
			}
			resp := postJSON(t, ts.URL+"/api/v1/campaigns", tc.body(t))
			if resp.StatusCode != tc.wantStatus {
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				t.Fatalf("HTTP %d, want %d: %s", resp.StatusCode, tc.wantStatus, body)
			}
			env := decodeEnvelope(t, resp)
			// The envelope must carry the taxonomy mapping of its own status.
			if env.Exit != ExitCode(tc.wantStatus) {
				t.Errorf("exit_code = %d, want %d", env.Exit, ExitCode(tc.wantStatus))
			}
			if env.Taxonomy != exitcode.String(ExitCode(tc.wantStatus)) {
				t.Errorf("taxonomy = %q", env.Taxonomy)
			}
			if env.Status != tc.wantStatus {
				t.Errorf("echoed status = %d, want %d", env.Status, tc.wantStatus)
			}
			if tc.wantIn != "" && !strings.Contains(env.Message, tc.wantIn) {
				t.Errorf("message %q missing %q", env.Message, tc.wantIn)
			}
			// A refused spec leaves the server serving: a valid one
			// submitted next is accepted.
			if tc.wantStatus == http.StatusBadRequest {
				submit(t, ts, tinySpec())
			}
		})
	}
}

// TestStatusExitCodeMapping pins the HTTP-status → taxonomy table.
func TestStatusExitCodeMapping(t *testing.T) {
	cases := map[int]int{
		200: exitcode.OK,
		202: exitcode.OK,
		400: exitcode.Usage,
		404: exitcode.Usage,
		405: exitcode.Usage,
		409: exitcode.Usage,
		429: exitcode.Infra,
		500: exitcode.Infra,
		503: exitcode.Infra,
	}
	for status, want := range cases {
		if got := ExitCode(status); got != want {
			t.Errorf("ExitCode(%d) = %d, want %d", status, got, want)
		}
	}
}

func TestUnknownRoutesAndIDs(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for _, tc := range []struct {
		method, path string
	}{
		{http.MethodGet, "/api/v1/campaigns/c999999"},
		{http.MethodDelete, "/api/v1/campaigns/c999999"},
		{http.MethodGet, "/api/v1/campaigns/c999999/events"},
		{http.MethodGet, "/api/v1/campaigns/c999999/trace"},
		{http.MethodGet, "/api/v2/nope"},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: HTTP %d, want 404", tc.method, tc.path, resp.StatusCode)
		}
		env := decodeEnvelope(t, resp)
		if env.Exit != exitcode.Usage {
			t.Errorf("%s %s: exit %d, want usage", tc.method, tc.path, env.Exit)
		}
	}
}

func TestHealthAndList(t *testing.T) {
	_, ts := newTestServer(t, nil)
	st := submit(t, ts, tinySpec())
	if st.State != StateQueued || st.ID == "" {
		t.Fatalf("accepted status = %+v", st)
	}
	if st.Spec.Invocations != 2 || st.Spec.Tenant != "anonymous" {
		t.Fatalf("spec not normalized on the wire: %+v", st.Spec)
	}
	resp, err := http.Get(ts.URL + "/api/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.State != "serving" || h.Queued != 1 || h.Campaigns != 1 {
		t.Fatalf("health = %+v", h)
	}
	resp, err = http.Get(ts.URL + "/api/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	var list []CampaignStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list = %+v", list)
	}
}

// TestCancelQueuedAndTerminal covers the cancel state machine without
// executors: a queued campaign cancels immediately and a second cancel of
// the now-terminal campaign is a 409 usage error.
func TestCancelQueuedAndTerminal(t *testing.T) {
	_, ts := newTestServer(t, nil)
	st := submit(t, ts, tinySpec())

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/campaigns/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: HTTP %d", resp.StatusCode)
	}
	var got CampaignStatus
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.State != StateCancelled || got.Exit != exitcode.Infra {
		t.Fatalf("cancelled status = %+v", got)
	}

	resp, err = http.DefaultClient.Do(req.Clone(req.Context()))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second cancel: HTTP %d, want 409", resp.StatusCode)
	}
	env := decodeEnvelope(t, resp)
	if env.Exit != exitcode.Usage {
		t.Errorf("terminal-cancel exit = %d, want usage", env.Exit)
	}
}

// TestMidRunCancel cancels a campaign while the engine is executing it:
// the campaign context's cancel must stop the run and the outcome must
// journal as cancelled, exit 3.
func TestMidRunCancel(t *testing.T) {
	hook, ch := stateWatcher()
	s, ts := newTestServer(t, func(o *Options) {
		o.Slots = 1
		o.OnStateChange = hook
	})
	spec := tinySpec()
	// Big enough that cancellation always lands mid-run.
	spec.Benchmarks = []string{"fib", "nbody", "spectralnorm"}
	spec.Invocations = 6
	spec.Iterations = 60
	st := submit(t, ts, spec)
	s.Start()
	waitFor(t, ch, st.ID, StateRunning)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/campaigns/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("mid-run cancel: HTTP %d", resp.StatusCode)
	}
	waitFor(t, ch, st.ID, StateCancelled)

	final, err := http.Get(ts.URL + "/api/v1/campaigns/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got CampaignStatus
	if err := json.NewDecoder(final.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	final.Body.Close()
	if got.State != StateCancelled || got.Exit != exitcode.Infra {
		t.Fatalf("final status = %+v", got)
	}
	if !strings.Contains(got.Error, "cancelled") {
		t.Errorf("error = %q", got.Error)
	}
}

// TestRunToCompletionEventsAndTrace runs a campaign end to end and checks
// the full read side: final status with results, the SSE stream replayed
// from 0 (benchmark progress framed by state transitions, terminal state
// last), and the downloadable trace.
func TestRunToCompletionEventsAndTrace(t *testing.T) {
	hook, ch := stateWatcher()
	s, ts := newTestServer(t, func(o *Options) { o.OnStateChange = hook })
	spec := tinySpec()
	spec.Benchmarks = []string{"fib", "collatz"}
	st := submit(t, ts, spec)
	s.Start()
	waitFor(t, ch, st.ID, StateDone)

	resp, err := http.Get(ts.URL + "/api/v1/campaigns/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got CampaignStatus
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.State != StateDone || got.Exit != exitcode.OK || len(got.Results) != 2 {
		t.Fatalf("final status: state=%s exit=%d results=%d", got.State, got.Exit, len(got.Results))
	}
	if got.Results[0].Invocations[0].Checksum != "1597" {
		t.Errorf("fib checksum = %q", got.Results[0].Invocations[0].Checksum)
	}

	// The stream is closed, so the GET returns every event and ends.
	resp, err = http.Get(ts.URL + "/api/v1/campaigns/" + st.ID + "/events?from=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type = %q", ct)
	}
	var states []State
	var benches, traces int
	sc := bufio.NewScanner(resp.Body)
	var typ string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			typ = line[7:]
		case strings.HasPrefix(line, "data: "):
			switch typ {
			case EventState:
				var sc StateChange
				if err := json.Unmarshal([]byte(line[6:]), &sc); err != nil {
					t.Fatal(err)
				}
				states = append(states, sc.State)
			case EventBenchmark:
				benches++
			case EventTrace:
				traces++
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	wantStates := []State{StateQueued, StateRunning, StateDone}
	if fmt.Sprint(states) != fmt.Sprint(wantStates) {
		t.Errorf("state sequence = %v, want %v", states, wantStates)
	}
	if benches != 4 { // 2 benchmarks × (start + done)
		t.Errorf("benchmark events = %d, want 4", benches)
	}
	if traces == 0 {
		t.Error("no trace events on the stream")
	}

	resp, err = http.Get(ts.URL + "/api/v1/campaigns/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	trace, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !bytes.Contains(trace, []byte("traceEvents")) {
		t.Fatalf("trace: HTTP %d, %d bytes", resp.StatusCode, len(trace))
	}
}

// TestBudgetClamping pins the quota tie-in to the PR 1 budget machinery:
// a submission may tighten its budgets but never exceed the ceilings, and
// an unlimited request gets the ceiling outright.
func TestBudgetClamping(t *testing.T) {
	_, ts := newTestServer(t, func(o *Options) {
		o.MaxStepBudget = 5_000_000
		o.MaxWallBudget = 10 * time.Second
	})
	unlimited := submit(t, ts, tinySpec())
	if unlimited.Spec.MaxSteps != 5_000_000 || unlimited.Spec.WallBudgetMs != 10_000 {
		t.Fatalf("unlimited submission not clamped: %+v", unlimited.Spec)
	}
	greedy := tinySpec()
	greedy.MaxSteps = 1 << 60
	greedy.WallBudgetMs = 1 << 40
	clamped := submit(t, ts, greedy)
	if clamped.Spec.MaxSteps != 5_000_000 || clamped.Spec.WallBudgetMs != 10_000 {
		t.Fatalf("greedy submission not clamped: %+v", clamped.Spec)
	}
	tight := tinySpec()
	tight.MaxSteps = 1000
	tight.WallBudgetMs = 50
	kept := submit(t, ts, tight)
	if kept.Spec.MaxSteps != 1000 || kept.Spec.WallBudgetMs != 50 {
		t.Fatalf("tight submission altered: %+v", kept.Spec)
	}
}

// TestDrainKeepsQueuedJobsJournaled shuts a server down with work still
// queued and verifies a successor on the same data dir re-enqueues it.
func TestDrainKeepsQueuedJobsJournaled(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s1.Handler())
	st := submit(t, ts, tinySpec())
	ts.Close()
	ctx, cancel := contextWithTimeout(t)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil { // executors never started: queued job stays
		t.Fatal(err)
	}

	hook, ch := stateWatcher()
	s2, err := New(Options{DataDir: dir, OnStateChange: hook, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	s2.Start()
	waitFor(t, ch, st.ID, StateDone)
	ctx2, cancel2 := contextWithTimeout(t)
	defer cancel2()
	if err := s2.Shutdown(ctx2); err != nil {
		t.Fatal(err)
	}
}
