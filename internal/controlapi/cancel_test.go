package controlapi

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestMidRunCancelKillsIsolatedChild cancels a running isolated campaign
// whose simulation runs for seconds in a worker child: the DELETE must
// kill the child and reach cancelled well before the run would end.
func TestMidRunCancelKillsIsolatedChild(t *testing.T) {
	hook, ch := stateWatcher()
	s, ts := newTestServer(t, func(o *Options) {
		o.Slots = 1
		o.OnStateChange = hook
	})
	spec := tinySpec()
	// 400 spectralnorm iterations take seconds to simulate.
	spec.Benchmarks = []string{"spectralnorm"}
	spec.Invocations = 2
	spec.Iterations = 400
	spec.Isolate = true
	st := submit(t, ts, spec)
	s.Start()
	waitFor(t, ch, st.ID, StateRunning)
	time.Sleep(200 * time.Millisecond) // let the child start the simulation

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/campaigns/"+st.ID, nil)
	cancelled := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("mid-run cancel: HTTP %d", resp.StatusCode)
	}
	deadline := time.After(3 * time.Second)
	for {
		select {
		case tr := <-ch:
			if tr.id != st.ID || !tr.state.Terminal() {
				continue
			}
			if tr.state != StateCancelled {
				t.Fatalf("campaign reached %s, want cancelled", tr.state)
			}
			t.Logf("cancelled %s after the DELETE", time.Since(cancelled))
			// The campaign really ran in a child, and the cancel killed it.
			trace := getBody(t, ts, "/api/v1/campaigns/"+st.ID+"/trace")
			if !bytes.Contains(trace, []byte(`"worker-spawn"`)) ||
				!bytes.Contains(trace, []byte(`"worker-kill"`)) {
				t.Fatalf("trace shows no killed worker child:\n%s", trace)
			}
			ctx, cancel := contextWithTimeout(t)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			return
		case <-deadline:
			t.Fatal("the isolated campaign ignored the cancel")
		}
	}
}

// TestShutdownPastGraceLeavesCampaignResumable shuts the server down past
// its grace period while a campaign runs: after its first benchmark's slots
// are journaled, inside the second benchmark's simulation. Like kill -9,
// that must leave the campaign unfinalized with its journals kept, so a
// server reopened on the same data dir resumes it to the sample set of a
// one-shot Execute.
func TestShutdownPastGraceLeavesCampaignResumable(t *testing.T) {
	dir := t.TempDir()
	spec := CampaignSpec{
		Benchmarks:  []string{"fib", "spectralnorm"},
		Invocations: 4,
		Iterations:  40,
		Seed:        42,
		Noise:       "quiet",
	}
	want, err := Execute(spec, ExecOptions{})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	hook1, ch1 := stateWatcher()
	s1, err := New(Options{DataDir: dir, Slots: 1, OnStateChange: hook1})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	st := submit(t, ts1, spec)
	s1.Start()
	waitFor(t, ch1, st.ID, StateRunning)
	// Shut down once fib's slots are journaled (key record + one line per
	// slot): spectralnorm then simulates for a while.
	journals := filepath.Join(s1.ledger.checkpointDir(st.ID), "*.ckpt.wal")
	journaled := func() bool {
		paths, _ := filepath.Glob(journals)
		for _, p := range paths {
			if b, _ := os.ReadFile(p); bytes.Count(b, []byte("\n")) >= 1+spec.Invocations {
				return true
			}
		}
		return false
	}
	for deadline := time.Now().Add(30 * time.Second); !journaled(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no slot was journaled")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	for len(ch1) > 0 {
		if tr := <-ch1; tr.id == st.ID && tr.state.Terminal() {
			t.Fatalf("shutdown finalized the campaign as %s", tr.state)
		}
	}

	hook2, ch2 := stateWatcher()
	s2, err := New(Options{DataDir: dir, Slots: 1, OnStateChange: hook2})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	s2.Start()
	waitFor(t, ch2, st.ID, StateDone)
	resp, err := http.Get(ts2.URL + "/api/v1/campaigns/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got CampaignStatus
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.State != StateDone || len(got.Results) != len(spec.Benchmarks) {
		t.Fatalf("resumed campaign: state=%s results=%d error=%q", got.State, len(got.Results), got.Error)
	}
	if sv := got.Results[0].Supervision; sv == nil || sv.ResumedFrom == 0 {
		t.Fatalf("the reopened server did not resume from the journal: %+v", sv)
	}
	for i := range want {
		if !reflect.DeepEqual(got.Results[i].Invocations, want[i].Invocations) {
			t.Errorf("%s: resumed sample set differs from the one-shot Execute", spec.Benchmarks[i])
		}
	}
	ctx2, cancel2 := contextWithTimeout(t)
	defer cancel2()
	if err := s2.Shutdown(ctx2); err != nil {
		t.Fatal(err)
	}
}
