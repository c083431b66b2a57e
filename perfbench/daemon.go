package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/client"
	"repro/internal/controlapi"
	"repro/internal/harness"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// daemonBenchmarks are the cheap programs of daemon-2c: with little VM
// work per campaign, the service layers dominate.
var daemonBenchmarks = []string{"fib", "richards", "deltablue", "wordcount", "knapsack", "matmul", "lcs", "dictstress"}

// daemonTenants are the two CI callers, one per engine. They take turns
// on one closed loop: two concurrent callers keep both CPUs of a 2-vCPU
// host busy, and their latencies then measure the scheduler and the
// host's contention more than the service.
var daemonTenants = []struct{ name, mode string }{{"ci-interp", "interp"}, {"ci-jit", "jit"}}

// opTimeout bounds one daemon op; a healthy op takes milliseconds.
const opTimeout = time.Minute

// historyCampaigns is how many finished campaigns the ledger holds when a
// timed set-up starts. Each set-up is a daemon restart that replays them,
// a few milliseconds of ledger and campaign work, so the host's
// sub-millisecond wake-up latency, which decided a start on an empty data
// dir, no longer does.
const historyCampaigns = 600

// daemon is pybenchd served in process on a loopback listener, with an
// on-disk data dir and two executor slots. One closed-loop client serves
// two tenants in turn: submit, stream the SSE events to the terminal
// state, get the result document. Every timed set-up restarts a daemon on
// a data dir holding a fixed history, so each set-up does the same work;
// the ops run on a second daemon, started afresh on an empty data dir
// after every set-up, so an op's work does not grow with the run's length.
type daemon struct {
	seed    uint64
	scratch string
	histDir string
	opsDir  string
	ops     *instance
	// parts are the timed parts of every set-up, in ms.
	parts map[string][]float64
	// doc is the last traced op's result document, sized by replay
	// outside the op's time.
	doc     *controlapi.CampaignStatus
	pending []pendingCheck
}

// pendingCheck is a finished campaign whose sample sets must equal a
// one-shot Execute of the same spec, computed after the timed phase.
type pendingCheck struct {
	spec        controlapi.CampaignSpec
	fingerprint string
}

func newDaemon(seed uint64, scratch string) *daemon {
	return &daemon{seed: seed, scratch: scratch, parts: map[string][]float64{}}
}

func (w *daemon) setupReps() (int, int)   { return 21, 10 }
func (w *daemon) nominalOpsPerS() float64 { return 100 }

// rotation is the client's op list: the tenants alternate, each going
// once through every program, the second starting half-way round.
func (w *daemon) rotation(int) []string {
	n := len(daemonBenchmarks)
	out := make([]string, 0, n*len(daemonTenants))
	for i := range n {
		for k, t := range daemonTenants {
			out = append(out, daemonBenchmarks[(i+k*n/2)%n]+"/"+t.mode)
		}
	}
	return out
}

// opAt is op i of the rotation: its program and its tenant.
func opAt(i int) (name string, tenant int) {
	n, k := len(daemonBenchmarks), len(daemonTenants)
	tenant = i % k
	return daemonBenchmarks[(i/k+tenant*n/2)%n], tenant
}

// setUp restarts a daemon on the history data dir: controlapi.New replays
// the ledger, then Start, listen and the first health round trip; the
// daemon is shut down again, untimed. Then, untimed, it replaces the daemon
// that serves the ops with one on a fresh data dir, so every batch of ops
// starts on an empty ledger and the daemon's heap stays small. The first
// call prepares the history.
func (w *daemon) setUp() (float64, error) {
	if w.histDir == "" {
		if err := w.prepare(); err != nil {
			return 0, err
		}
	}
	s, err := w.restart()
	if err != nil {
		return 0, err
	}
	return s, w.freshOps()
}

// restart times one restart of a daemon on the history data dir.
func (w *daemon) restart() (float64, error) {
	start := time.Now()
	srv, err := controlapi.New(controlapi.Options{DataDir: w.histDir, Slots: 2})
	if err != nil {
		return 0, err
	}
	opened := time.Now()
	in, err := serve(srv)
	if err != nil {
		return 0, err
	}
	defer in.stop()
	serving := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	if _, err := in.clients[0].Health(ctx); err != nil {
		return 0, err
	}
	end := time.Now()
	w.parts["controlapi.new_ms"] = append(w.parts["controlapi.new_ms"], ms(opened.Sub(start)))
	w.parts["controlapi.serve_ms"] = append(w.parts["controlapi.serve_ms"], ms(serving.Sub(opened)))
	w.parts["controlapi.health_ms"] = append(w.parts["controlapi.health_ms"], ms(end.Sub(serving)))
	return end.Sub(start).Seconds(), nil
}

// prepare creates the history data dir and serves historyCampaigns
// one-iteration campaigns into it, both tenants at once.
func (w *daemon) prepare() error {
	d, err := os.MkdirTemp(w.scratch, "daemon-")
	if err != nil {
		return fmt.Errorf("creating data dir: %w", err)
	}
	w.histDir = d
	srv, err := controlapi.New(controlapi.Options{DataDir: w.histDir, Slots: 2})
	if err != nil {
		return err
	}
	hist, err := serve(srv)
	if err != nil {
		return err
	}
	errs := make([]error, len(daemonTenants))
	var wg sync.WaitGroup
	for c, t := range daemonTenants {
		wg.Add(1)
		go func(c int, mode string) {
			defer wg.Done()
			for k := range historyCampaigns / len(daemonTenants) {
				name := daemonBenchmarks[k%len(daemonBenchmarks)]
				spec := controlapi.CampaignSpec{
					Benchmarks:  []string{name},
					Mode:        mode,
					Invocations: 1,
					Iterations:  1,
					Noise:       "quiet",
					Seed:        campaignSeed(w.seed, fmt.Sprintf("history/%d/%s", k, mode)),
				}
				ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
				st, err := hist.clients[c].Submit(ctx, spec)
				if err == nil {
					_, err = hist.clients[c].Wait(ctx, st.ID, nil)
				}
				cancel()
				if err != nil {
					errs[c] = fmt.Errorf("history campaign %d of %s: %w", k, daemonTenants[c].name, err)
					return
				}
			}
		}(c, t.mode)
	}
	wg.Wait()
	hist.stop()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("writing the ledger history: %w", err)
	}
	return nil
}

// freshOps stops the daemon that serves the ops, removes its data dir, and
// starts a new one on a fresh data dir.
func (w *daemon) freshOps() error {
	w.stopOps()
	d, err := os.MkdirTemp(w.scratch, "daemon-")
	if err != nil {
		return fmt.Errorf("creating data dir: %w", err)
	}
	w.opsDir = d
	srv, err := controlapi.New(controlapi.Options{DataDir: w.opsDir, Slots: 2})
	if err != nil {
		return err
	}
	w.ops, err = serve(srv)
	return err
}

// stopOps stops the daemon that serves the ops and removes its data dir.
func (w *daemon) stopOps() {
	if w.ops != nil {
		w.ops.stop()
		w.ops = nil
	}
	removeDir(&w.opsDir)
}

// close stops the daemon that serves the ops and removes both data dirs.
func (w *daemon) close() {
	w.stopOps()
	removeDir(&w.histDir)
}

// removeDir removes the data dir *dir, if any, and forgets it.
func removeDir(dir *string) {
	if *dir == "" {
		return
	}
	if err := os.RemoveAll(*dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: removing data dir:", err)
	}
	*dir = ""
}

// instance is one pybenchd served in process, with one client per tenant.
type instance struct {
	srv     *controlapi.Server
	hs      *http.Server
	served  chan struct{}
	tr      *http.Transport
	clients []*client.Client
}

// serve starts srv's executors and serves its handler on a fresh loopback
// listener.
func serve(srv *controlapi.Server) (*instance, error) {
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(fmt.Errorf("listening: %w", err), srv.Shutdown(context.Background()))
	}
	in := &instance{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}),
		tr:     &http.Transport{MaxIdleConnsPerHost: 2 * len(daemonTenants)},
	}
	go func() {
		defer close(in.served)
		//benchlint:allow uncheckederr — Serve returns ErrServerClosed on shutdown
		in.hs.Serve(ln)
	}()
	hc := &http.Client{Transport: in.tr}
	addr := ln.Addr().String()
	for _, t := range daemonTenants {
		in.clients = append(in.clients, client.New(addr, client.WithHTTPClient(hc), client.WithTenant(t.name)))
	}
	return in, nil
}

// stop shuts the daemon down and waits for its goroutines.
func (in *instance) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	if err := in.hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: http shutdown:", err)
	}
	<-in.served
	if err := in.srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: daemon shutdown:", err)
	}
	in.tr.CloseIdleConnections()
}

func (w *daemon) op(_, i int, t *opTrace) (time.Duration, error) {
	name, c := opAt(i)
	mode := daemonTenants[c].mode
	spec := controlapi.CampaignSpec{
		Benchmarks:  []string{name},
		Mode:        mode,
		Invocations: 2,
		Iterations:  3,
		Noise:       "quiet",
		Seed:        campaignSeed(w.seed, name+"/"+mode),
	}
	cl := w.ops.clients[c]
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()

	st, err := cl.Submit(ctx, spec)
	if err != nil {
		return 0, err
	}
	submitted := t.now()
	first := time.Duration(-1)
	s := streamTimes{}
	err = cl.Stream(ctx, st.ID, 0, func(ev client.Event) error {
		at := t.now()
		if first < 0 {
			first = at
		}
		if t.on {
			return s.observe(ev, at)
		}
		return nil
	})
	if err != nil {
		return first, err
	}
	streamed := t.now()
	got, err := cl.Get(ctx, st.ID)
	if err != nil {
		return first, err
	}
	if t.on {
		end := t.now()
		t.val("controlapi.submit_ns", float64(submitted))
		t.val("controlapi.queue_ns", float64(s.running-submitted))
		t.val("controlapi.get_ns", float64(end-streamed))
		if err := layOut(t, s, end); err != nil {
			return first, err
		}
		w.doc = got
	}
	if err := checkCampaign(got, name); err != nil {
		return first, err
	}
	w.pending = append(w.pending, pendingCheck{spec: got.Spec, fingerprint: fingerprint(got.Results)})
	return first, nil
}

// replay sizes a traced op's result document, encoded as the daemon
// writes it, outside the op's time.
func (w *daemon) replay(_, _ int, t *opTrace) {
	doc, err := json.MarshalIndent(w.doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding a result document:", err)
		return
	}
	t.val("controlapi.result_bytes", float64(len(doc)))
}

// streamTimes are the op-clock arrival times of a campaign's SSE events
// and the program's own spans streamed with them.
type streamTimes struct {
	events                      int
	running, lastDone, terminal time.Duration
	benchTS, benchDur           time.Duration
	haveBench                   bool
	invocations                 []trace.Event
}

func (s *streamTimes) observe(ev client.Event, at time.Duration) error {
	s.events++
	switch ev.Type {
	case controlapi.EventState:
		var sc controlapi.StateChange
		if err := json.Unmarshal(ev.Data, &sc); err != nil {
			return err
		}
		if sc.State == controlapi.StateRunning {
			s.running = at
		}
		if sc.State.Terminal() {
			s.terminal = at
		}
	case controlapi.EventBenchmark:
		var bp controlapi.BenchmarkProgress
		if err := json.Unmarshal(ev.Data, &bp); err != nil {
			return err
		}
		if bp.Done {
			s.lastDone = at
		}
	case controlapi.EventTrace:
		var te trace.Event
		if err := json.Unmarshal(ev.Data, &te); err != nil {
			return err
		}
		switch {
		case te.Cat == trace.CatBenchmark && !s.haveBench:
			s.benchTS, s.benchDur, s.haveBench = te.TS, te.Dur, true
		case te.Cat == trace.CatInvocation:
			s.invocations = append(s.invocations, te)
		}
	}
	return nil
}

// layOut lays a daemon op that ended at end out as spans: the wait for the
// campaign to start (submit, ledger fsync, queue), the campaign, and the
// stream's close and the Get. The client's submit and the campaign
// overlap: an idle executor starts the campaign before the 202 reaches the
// client. The program's streamed spans are offsets from the campaign
// tracer's start on the server's clock. They are placed once, unclipped,
// at the latest time the tracer can have started by what the client saw:
// the running event's arrival, or the benchmark-done event's arrival less
// the reported end of the benchmark span, whichever is earlier (events
// reach the client late, never early; the server sends running just before
// the tracer starts and benchmark-done just after the benchmark span
// closes). A benchmark span that claims more time than passed from the
// submit to its done event then starts before the op, and a span placed
// outside its parent sticks out of it; either way the self times overshoot
// the op time and the op does not reconcile. The gap from the tracer's
// start to the benchmark span is the fresh runner compiling and analyzing
// its program.
func layOut(t *opTrace, s streamTimes, end time.Duration) error {
	if !s.haveBench || s.running == 0 || s.terminal == 0 || s.lastDone == 0 {
		return errors.New("event stream lacks the running, benchmark or terminal events")
	}
	anchor := min(s.running, s.lastDone-s.benchTS-s.benchDur)
	t.add("controlapi", 0, 0, max(0, anchor))
	camp := t.add("controlapi", 0, anchor, s.terminal)
	t.add("analysis", camp, anchor, anchor+s.benchTS)
	bench := t.add("harness", camp, anchor+s.benchTS, anchor+s.benchTS+s.benchDur)
	for _, ev := range s.invocations {
		t.add("vm", bench, anchor+ev.TS, anchor+ev.TS+ev.Dur)
	}
	t.add("wal", camp, s.lastDone, s.terminal)
	t.add("controlapi", 0, s.terminal, end)

	t.val("analysis.campaign_compile_ns", float64(s.benchTS))
	t.val("harness.invocation_ns", float64(eventTime(s.invocations, trace.CatInvocation, "")))
	t.val("controlapi.finalize_ns", float64(s.terminal-s.lastDone))
	t.val("controlapi.events", float64(s.events))
	return nil
}

// checkCampaign checks a finished campaign's status and checksums.
func checkCampaign(st *controlapi.CampaignStatus, name string) error {
	if st.State != controlapi.StateDone {
		return fmt.Errorf("campaign %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if len(st.Results) != 1 || st.Results[0].Benchmark != name {
		return fmt.Errorf("campaign %s: want one result for %s", st.ID, name)
	}
	b, _ := workloads.ByName(name)
	r := st.Results[0]
	if len(r.Invocations) != 2 {
		return fmt.Errorf("campaign %s: %d invocations, want 2", st.ID, len(r.Invocations))
	}
	for _, inv := range r.Invocations {
		if len(inv.TimesSec) != 3 {
			return fmt.Errorf("campaign %s: %d iterations, want 3", st.ID, len(inv.TimesSec))
		}
		if inv.Checksum != b.Checksum {
			return fmt.Errorf("campaign %s: checksum %s, want %s", st.ID, inv.Checksum, b.Checksum)
		}
	}
	return nil
}

// check compares every finished campaign's sample sets with a one-shot
// controlapi.Execute of the same spec.
func (w *daemon) check() (int, error) {
	want := map[string]string{}
	failed := 0
	for _, p := range w.pending {
		key, err := json.Marshal(p.spec)
		if err != nil {
			return 0, err
		}
		ref, ok := want[string(key)]
		if !ok {
			res, err := controlapi.Execute(p.spec, controlapi.ExecOptions{})
			if err != nil {
				return 0, fmt.Errorf("one-shot reference of %v: %w", p.spec.Benchmarks, err)
			}
			ref = fingerprint(res)
			want[string(key)] = ref
		}
		if p.fingerprint != ref {
			failed++
		}
	}
	return failed, nil
}

// fingerprint hashes the sample sets of a campaign's results bit for bit.
func fingerprint(rs []*harness.Result) string {
	h := sha256.New()
	for _, r := range rs {
		fmt.Fprintf(h, "%s/%d:", r.Benchmark, r.Mode)
		for _, inv := range r.Invocations {
			for j := range inv.TimesSec {
				fmt.Fprintf(h, "%x,%d,%d;", math.Float64bits(inv.TimesSec[j]), inv.Cycles[j], inv.Steps[j])
			}
			fmt.Fprintf(h, "%s|", inv.Checksum)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (w *daemon) layers(p *phase, setupS float64) map[string]float64 {
	v := sumVals(p.traces)
	n := float64(len(p.traces))
	p50 := func(name string) float64 {
		xs := make([]float64, 0, len(p.traces))
		for _, t := range p.traces {
			xs = append(xs, t.vals[name]/1e6)
		}
		return median(xs)
	}
	return map[string]float64{
		"controlapi.start_ms":              setupS * 1e3,
		"controlapi.new_ms":                median(w.parts["controlapi.new_ms"]),
		"controlapi.serve_ms":              median(w.parts["controlapi.serve_ms"]),
		"controlapi.health_ms":             median(w.parts["controlapi.health_ms"]),
		"controlapi.submit_ms_p50":         p50("controlapi.submit_ns"),
		"controlapi.queue_ms_p50":          p50("controlapi.queue_ns"),
		"analysis.campaign_compile_ms_p50": p50("analysis.campaign_compile_ns"),
		"harness.invocation_ms_per_op":     v["harness.invocation_ns"] / 1e6 / n,
		"controlapi.finalize_ms_p50":       p50("controlapi.finalize_ns"),
		"controlapi.get_ms_p50":            p50("controlapi.get_ns"),
		"controlapi.result_kb":             v["controlapi.result_bytes"] / 1024 / n,
		"controlapi.events_per_op":         v["controlapi.events"] / n,
	}
}
