package controlapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestCrashRecovery is the kill -9 drill: a daemon dies mid-campaign at a
// deliberate crash point (harness.SupervisorOptions.CrashAfter, the same
// hook benchchaos uses), a successor on the same data dir re-enqueues the
// interrupted campaign from the fsynced ledger, resumes it from its
// checkpoint journal instead of re-running completed invocations, and the
// merged sample set is bit-identical to an uninterrupted run. CI folds
// this into the chaos-soak job.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	spec := CampaignSpec{
		Benchmarks:  []string{"fib"},
		Invocations: 5,
		Iterations:  4,
		Seed:        42,
		Noise:       "quiet",
	}

	// The reference: the same campaign, uninterrupted.
	want, err := Execute(spec, ExecOptions{})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	// Incarnation 1: crash after 2 completed invocation slots. The default
	// CrashFunc wedges the server exactly as SIGKILL would leave the disk —
	// nothing finalized, outcome never journaled.
	s1, err := New(Options{DataDir: dir, Slots: 1, CrashAfterSlots: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	st := submit(t, ts1, spec)
	s1.Start()
	deadline := time.Now().Add(30 * time.Second)
	for !s1.Crashed() {
		if time.Now().After(deadline) {
			t.Fatal("crash point never tripped")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ts1.Close()
	ctx, cancel := contextWithTimeout(t)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil { // executors already stopped by the crash
		t.Fatal(err)
	}

	// Incarnation 2: replay the ledger. The campaign must come back
	// queued, run to completion, and resume rather than restart.
	hook, ch := stateWatcher()
	s2, err := New(Options{DataDir: dir, Slots: 1, OnStateChange: hook})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	s2.Start()
	waitFor(t, ch, st.ID, StateDone)

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
		t.Fatalf("recovered campaign: state=%s results=%d error=%q", got.State, len(got.Results), got.Error)
	}
	sv := got.Results[0].Supervision
	if sv == nil || sv.ResumedFrom == 0 {
		t.Fatalf("recovered run did not resume from the checkpoint: %+v", sv)
	}

	// The scientific contract: resumption must not change the data.
	if !reflect.DeepEqual(got.Results[0].Invocations, want[0].Invocations) {
		t.Errorf("resumed sample set differs from uninterrupted run\ngot:  %+v\nwant: %+v",
			got.Results[0].Invocations, want[0].Invocations)
	}

	ctx2, cancel2 := contextWithTimeout(t)
	defer cancel2()
	if err := s2.Shutdown(ctx2); err != nil {
		t.Fatal(err)
	}
}

// TestLedgerWithRetiredFieldsReplays restarts a daemon on a ledger whose
// one submission an earlier build journaled with the retired sharding
// fields "workers" and "parallel_policy" (testdata/sharded_submit.ledger.wal,
// a campaign that never finished). The ledger decodes leniently, so the
// campaign comes back queued and runs to the one-shot sample set.
func TestLedgerWithRetiredFieldsReplays(t *testing.T) {
	spec := CampaignSpec{
		Benchmarks:  []string{"fib"},
		Invocations: 3,
		Iterations:  4,
		Seed:        42,
		Noise:       "quiet",
	}
	want, err := Execute(spec, ExecOptions{})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	ledger, err := os.ReadFile(filepath.Join("testdata", "sharded_submit.ledger.wal"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "ledger.wal"), ledger, 0o644); err != nil {
		t.Fatal(err)
	}

	hook, ch := stateWatcher()
	s, err := New(Options{DataDir: dir, Slots: 1, OnStateChange: hook})
	if err != nil {
		t.Fatalf("replaying the ledger: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Start()
	waitFor(t, ch, "c000000", StateDone)
	var got CampaignStatus
	if err := json.Unmarshal(getBody(t, ts, "/api/v1/campaigns/c000000"), &got); err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone || len(got.Results) != 1 {
		t.Fatalf("replayed campaign: state=%s results=%d error=%q", got.State, len(got.Results), got.Error)
	}
	if !reflect.DeepEqual(got.Results[0].Invocations, want[0].Invocations) {
		t.Error("replayed sample set differs from the one-shot Execute")
	}
	ctx, cancel := contextWithTimeout(t)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}
