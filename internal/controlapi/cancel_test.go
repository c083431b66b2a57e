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
// whose invocations run for seconds each in a worker child: the DELETE
// must kill the child and reach cancelled well before the run would end.
func TestMidRunCancelKillsIsolatedChild(t *testing.T) {
	hook, ch := stateWatcher()
	s, ts := newTestServer(t, func(o *Options) {
		o.Slots = 1
		o.OnStateChange = hook
	})
	spec := tinySpec()
	// Two invocations of 400 spectralnorm iterations: seconds each.
	spec.Benchmarks = []string{"spectralnorm"}
	spec.Invocations = 2
	spec.Iterations = 400
	spec.Isolate = true
	st := submit(t, ts, spec)
	s.Start()
	waitFor(t, ch, st.ID, StateRunning)
	time.Sleep(200 * time.Millisecond) // let the child start the invocation

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
// its grace period while a campaign runs. Like kill -9, that must leave
// the campaign unfinalized with its journals kept, so a server reopened on
// the same data dir resumes it to the sample set of a one-shot Execute.
func TestShutdownPastGraceLeavesCampaignResumable(t *testing.T) {
	dir := t.TempDir()
	spec := CampaignSpec{
		Benchmarks:  []string{"spectralnorm"},
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
	// Shut down once the first slot is journaled (key record + one slot).
	journal := filepath.Join(s1.ledger.checkpointDir(st.ID), "spectralnorm_interp.ckpt.wal")
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if b, _ := os.ReadFile(journal); bytes.Count(b, []byte("\n")) >= 2 {
			break
		}
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
	if got.State != StateDone || len(got.Results) != 1 {
		t.Fatalf("resumed campaign: state=%s results=%d error=%q", got.State, len(got.Results), got.Error)
	}
	if sv := got.Results[0].Supervision; sv == nil || sv.ResumedFrom == 0 {
		t.Fatalf("the reopened server did not resume from the journal: %+v", sv)
	}
	if !reflect.DeepEqual(got.Results[0].Invocations, want[0].Invocations) {
		t.Error("resumed sample set differs from the one-shot Execute")
	}
	ctx2, cancel2 := contextWithTimeout(t)
	defer cancel2()
	if err := s2.Shutdown(ctx2); err != nil {
		t.Fatal(err)
	}
}
