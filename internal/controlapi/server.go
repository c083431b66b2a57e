package controlapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/trace"
)

// Options configures a Server. The zero value of every knob selects a
// sensible default; DataDir is required.
type Options struct {
	// DataDir holds the job ledger, per-campaign checkpoint journals, and
	// persisted result documents. A daemon restarted on the same DataDir
	// recovers its ledger and resumes interrupted campaigns.
	DataDir string
	// QueueDepth bounds accepted-but-unstarted campaigns (default 32);
	// beyond it submissions are rejected with 429, never silently dropped.
	QueueDepth int
	// Slots is the number of campaigns executed concurrently (default 2).
	// Each campaign's sample set is a pure function of its spec, so
	// concurrency never enters the science.
	Slots int
	// TenantQuota bounds one tenant's in-flight (queued + running)
	// campaigns (default 4) — the per-tenant concurrency quota.
	TenantQuota int
	// MaxStepBudget and MaxWallBudget clamp every submission's
	// per-invocation budgets (the PR 1 budget machinery): a spec may
	// tighten its own budget but never exceed the service ceiling.
	// Defaults: 1<<32 steps, 2 minutes wall.
	MaxStepBudget uint64
	MaxWallBudget time.Duration
	// CrashAfterSlots, when > 0, arms the chaos crash hook: the first
	// campaign executed runs with harness.SupervisorOptions.CrashAfter set,
	// and when the crash point trips CrashFunc is invoked with the ledger
	// exactly as a kill -9 would leave it. Never production.
	CrashAfterSlots int
	// CrashFunc realizes the crash (default: wedge the server — executors
	// stop, nothing is finalized). cmd/pybenchd installs a real SIGKILL.
	CrashFunc func()
	// OnStateChange, when non-nil, observes every campaign state
	// transition (logging and tests).
	OnStateChange func(id string, state State)
	// Logf sinks operational log lines (default: discard).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 32
	}
	if o.Slots <= 0 {
		o.Slots = 2
	}
	if o.TenantQuota <= 0 {
		o.TenantQuota = 4
	}
	if o.MaxStepBudget == 0 {
		o.MaxStepBudget = 1 << 32
	}
	if o.MaxWallBudget == 0 {
		o.MaxWallBudget = 2 * time.Minute
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// campaign is the server-side state of one submission.
type campaign struct {
	id     string
	tenant string
	spec   CampaignSpec
	state  State
	errMsg string
	// results holds the in-memory results of a campaign finished in this
	// process; campaigns finished before a restart are served from the
	// persisted result document instead.
	results []*harness.Result
	events  *eventLog
	// ctx is the campaign's one cancellation signal, handed to Execute.
	// cancel ends it with errCancelledByClient (the cancel handler) or
	// errShutdown (a shutdown past its grace period).
	ctx    context.Context
	cancel context.CancelCauseFunc
	tracer *trace.Tracer
}

// The causes a campaign's context is cancelled with.
var (
	errCancelledByClient = errors.New("campaign cancelled by client")
	errShutdown          = errors.New("daemon shut down past its grace period")
)

func newCampaign(id, tenant string, spec CampaignSpec, state State) *campaign {
	ctx, cancel := context.WithCancelCause(context.Background())
	return &campaign{id: id, tenant: tenant, spec: spec, state: state,
		events: newEventLog(), ctx: ctx, cancel: cancel}
}

// CampaignStatus is the JSON shape of a campaign on the wire — the
// response of submit/get/cancel and the payload persisted as the result
// document. It contains no wall-clock fields: like every artifact in this
// repository, the response of a pinned-seed campaign is byte-stable.
type CampaignStatus struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	State  State  `json:"state"`
	// Exit is the taxonomy exit code of the outcome (0 until terminal).
	Exit  int          `json:"exit_code"`
	Error string       `json:"error,omitempty"`
	Spec  CampaignSpec `json:"spec"`
	// Results carries one harness result per benchmark, in spec order,
	// once the campaign is terminal (partial on degraded/failed runs).
	Results []*harness.Result `json:"results,omitempty"`
}

// Health is the JSON shape of GET /api/v1/healthz.
type Health struct {
	// State is "serving" or "draining".
	State string `json:"state"`
	// Queued and Running count in-flight campaigns.
	Queued  int `json:"queued"`
	Running int `json:"running"`
	// Campaigns counts every campaign the ledger knows.
	Campaigns int `json:"campaigns"`
}

// Server is the pybenchd control plane: a bounded campaign queue feeding
// Slots executor goroutines, per-tenant quotas, an SSE event stream per
// campaign, and a WAL-journaled ledger that survives kill -9.
type Server struct {
	opts   Options
	ledger *ledger

	mu        sync.Mutex
	cond      *sync.Cond
	campaigns map[string]*campaign
	order     []string
	queue     []*campaign
	running   int
	nextID    int
	draining  bool
	crashed   bool
	started   bool

	wg sync.WaitGroup
}

// New opens the ledger under opts.DataDir, replays it, and re-enqueues
// every campaign that never reached a terminal state. Executors do not run
// until Start is called, so tests can drive the queue synchronously.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if opts.DataDir == "" {
		return nil, errors.New("controlapi: Options.DataDir is required")
	}
	led, replayed, err := openLedger(opts.DataDir)
	if err != nil {
		return nil, err
	}
	s := &Server{opts: opts, ledger: led, campaigns: map[string]*campaign{}}
	s.cond = sync.NewCond(&s.mu)
	if !led.Recovery.Clean() {
		s.opts.Logf("controlapi: ledger recovered: %s", led.Recovery.String())
	}
	for _, rc := range replayed {
		c := newCampaign(rc.ID, rc.Tenant, rc.Spec, rc.State)
		c.errMsg = rc.Error
		s.campaigns[c.id] = c
		s.order = append(s.order, c.id)
		if n, err := strconv.Atoi(rc.ID[1:]); err == nil && n >= s.nextID {
			s.nextID = n + 1
		}
		if c.state.Terminal() {
			// Replayed history: the stream holds its terminal transition.
			c.events.append(EventState, StateChange{
				ID: c.id, State: c.state, Exit: c.state.ExitCode(), Error: c.errMsg,
			})
			c.events.close()
			continue
		}
		// Interrupted mid-flight: requeue. The campaign's checkpoint
		// journals (still on disk — cleanup happens only on a clean
		// finish) make the re-run resume rather than repeat.
		c.state = StateQueued
		c.events.append(EventState, StateChange{ID: c.id, State: StateQueued})
		s.queue = append(s.queue, c)
		s.opts.Logf("controlapi: requeued interrupted campaign %s", c.id)
	}
	return s, nil
}

// Start launches the executor pool.
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	for i := 0; i < s.opts.Slots; i++ {
		s.wg.Add(1)
		go s.executor()
	}
}

// Drain stops accepting submissions and stops dequeuing: running
// campaigns finish, queued ones stay journaled for the next start.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Draining reports whether the server refuses new submissions.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Crashed reports whether the chaos crash hook fired (in-process
// configurations; the daemon's CrashFunc never returns).
func (s *Server) Crashed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashed
}

// Shutdown drains and waits for running campaigns to finish. If ctx ends
// first, running campaigns are cancelled with errShutdown and waited for
// unconditionally: their slots abort within one VM poll interval, an
// isolated child is killed at once, and each campaign is left as kill -9
// would leave it — no result document, no outcome record, checkpoint
// journals kept — so the next start requeues and resumes it. The ledger
// is closed last, so every outcome reached disk.
func (s *Server) Shutdown(ctx context.Context) error {
	s.Drain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.mu.Lock()
		for _, c := range s.campaigns {
			if c.state == StateRunning {
				c.cancel(errShutdown)
			}
		}
		s.mu.Unlock()
		<-done
	}
	return s.ledger.close()
}

// dequeue blocks until a campaign is available, returning nil when the
// server drains or crashes.
func (s *Server) dequeue() *campaign {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.draining || s.crashed {
			return nil
		}
		if len(s.queue) > 0 {
			c := s.queue[0]
			s.queue = s.queue[1:]
			s.running++
			return c
		}
		s.cond.Wait()
	}
}

func (s *Server) executor() {
	defer s.wg.Done()
	for {
		c := s.dequeue()
		if c == nil {
			return
		}
		s.runCampaign(c)
		s.mu.Lock()
		s.running--
		s.mu.Unlock()
	}
}

// setState moves a campaign's lifecycle state, emits the state event, and
// notifies the observer hook. Terminal states close the event stream.
func (s *Server) setState(c *campaign, state State, errMsg string) {
	s.mu.Lock()
	c.state = state
	c.errMsg = errMsg
	s.mu.Unlock()
	c.events.append(EventState, StateChange{
		ID: c.id, State: state, Exit: state.ExitCode(), Error: errMsg,
	})
	if state.Terminal() {
		c.events.close()
	}
	if s.opts.OnStateChange != nil {
		s.opts.OnStateChange(c.id, state)
	}
}

// tracedCategories are the Observer span categories forwarded to the SSE
// stream. Iteration and phase spans are per-iteration hot events — they
// stay in the downloadable trace but off the wire.
var tracedCategories = map[string]bool{
	trace.CatBenchmark:  true,
	trace.CatInvocation: true,
	trace.CatSupervisor: true,
}

// pumpTrace forwards new Observer events from the campaign tracer to the
// event log until stop closes, then drains once more so the stream holds
// every span of the finished run.
func (s *Server) pumpTrace(c *campaign, stop <-chan struct{}) {
	seen := 0
	forward := func() {
		if c.tracer.Len() == seen {
			return
		}
		events := c.tracer.Events()
		for _, ev := range events[seen:] {
			if tracedCategories[ev.Cat] {
				c.events.append(EventTrace, ev)
			}
		}
		seen = len(events)
	}
	tick := time.NewTicker(25 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			forward()
			return
		case <-tick.C:
			forward()
		}
	}
}

// runCampaign executes one campaign through the shared Execute path and
// finalizes its outcome: result document persisted atomically, outcome
// journaled, state event emitted. A fired crash point or a shutdown past
// its grace period skips ALL of that — the ledger must look exactly as
// kill -9 would leave it.
func (s *Server) runCampaign(c *campaign) {
	s.setState(c, StateRunning, "")
	c.tracer = trace.New()
	runner := harness.NewRunner()
	runner.SetObserver(harness.Observer{Trace: c.tracer})

	pumpDone := make(chan struct{})
	pumpStopped := make(chan struct{})
	go func() {
		s.pumpTrace(c, pumpDone)
		close(pumpStopped)
	}()

	total := len(c.spec.Benchmarks)
	results, err := Execute(c.spec, ExecOptions{
		Runner:        runner,
		CheckpointDir: s.ledger.checkpointDir(c.id),
		CrashAfter:    s.takeCrashBudget(),
		Context:       c.ctx,
		OnBenchmark: func(i int, name string, done bool) {
			c.events.append(EventBenchmark, BenchmarkProgress{
				ID: c.id, Benchmark: name, Index: i, Total: total, Done: done,
			})
		},
	})
	close(pumpDone)
	<-pumpStopped

	if err != nil && errors.Is(err, harness.ErrCrashPoint) {
		s.crash(c, err)
		return
	}
	if err != nil && errors.Is(context.Cause(c.ctx), errShutdown) {
		// Interrupted by shutdown: finalize nothing, as kill -9 would not.
		// The ledger still says running and the journals hold every
		// completed slot, so the next start requeues and resumes it.
		s.opts.Logf("controlapi: campaign %s interrupted by shutdown; left to resume", c.id)
		c.events.close()
		return
	}

	c.results = results
	state, errMsg := StateDone, ""
	switch {
	case err != nil && c.ctx.Err() != nil:
		// Cut short by the cancel; a run that finished before it is done.
		state, errMsg = StateCancelled, context.Cause(c.ctx).Error()
	case errors.Is(err, harness.ErrQuorum):
		state, errMsg = StateDegraded, err.Error()
	case err != nil:
		state, errMsg = StateFailed, err.Error()
	}

	// Persist before acknowledging: result document first (atomic), then
	// the outcome record. A crash between the two replays the campaign —
	// wasteful, never wrong.
	status := s.statusLocked(c, state, errMsg, results)
	doc, merr := json.MarshalIndent(status, "", "  ")
	if merr == nil {
		merr = s.ledger.saveResult(c.id, append(doc, '\n'))
	}
	if merr != nil {
		s.opts.Logf("controlapi: %s: persisting result: %v", c.id, merr)
		if state == StateDone {
			state, errMsg = StateFailed, fmt.Sprintf("persisting result: %v", merr)
		}
	}
	if jerr := s.ledger.appendOutcome(c.id, state, errMsg); jerr != nil {
		s.opts.Logf("controlapi: %s: journaling outcome: %v", c.id, jerr)
	}
	removeAll(s.ledger.checkpointDir(c.id))
	s.setState(c, state, errMsg)
	s.opts.Logf("controlapi: campaign %s finished: %s %s", c.id, state, errMsg)
}

// takeCrashBudget arms the chaos crash hook exactly once.
func (s *Server) takeCrashBudget() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.opts.CrashAfterSlots
	s.opts.CrashAfterSlots = 0
	return n
}

// crash realizes a tripped crash point: nothing is finalized, the server
// wedges (or CrashFunc SIGKILLs the process), and the on-disk state is
// whatever the fsynced journals already hold.
func (s *Server) crash(c *campaign, err error) {
	s.opts.Logf("controlapi: campaign %s hit crash point: %v", c.id, err)
	s.mu.Lock()
	s.crashed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	if s.opts.CrashFunc != nil {
		s.opts.CrashFunc()
	}
}

// statusLocked builds the wire status of a campaign.
func (s *Server) statusLocked(c *campaign, state State, errMsg string, results []*harness.Result) CampaignStatus {
	return CampaignStatus{
		ID:      c.id,
		Tenant:  c.tenant,
		State:   state,
		Exit:    state.ExitCode(),
		Error:   errMsg,
		Spec:    c.spec,
		Results: results,
	}
}

// removeAll is os.RemoveAll with the error deliberately dropped: stale
// checkpoint dirs are garbage, not state.
func removeAll(dir string) {
	//benchlint:allow uncheckederr — best-effort scratch cleanup
	os.RemoveAll(dir)
}
