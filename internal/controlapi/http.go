package controlapi

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// TenantHeader attributes a submission to a tenant for quota accounting
// when the spec itself does not name one.
const TenantHeader = "X-Benchd-Tenant"

// maxSpecBytes bounds a submission body; a campaign spec is a page of
// JSON, not a payload channel.
const maxSpecBytes = 1 << 20

// Handler returns the daemon's HTTP API. Routes (see docs/api.md):
//
//	GET    /api/v1/healthz               liveness + drain state
//	POST   /api/v1/campaigns             submit a campaign
//	GET    /api/v1/campaigns             list campaigns
//	GET    /api/v1/campaigns/{id}        status + terminal results
//	DELETE /api/v1/campaigns/{id}        cancel (queued or running)
//	GET    /api/v1/campaigns/{id}/events SSE progress stream
//	GET    /api/v1/campaigns/{id}/trace  Chrome trace of a finished campaign
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/healthz", s.handleHealth)
	mux.HandleFunc("POST /api/v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/campaigns", s.handleList)
	mux.HandleFunc("GET /api/v1/campaigns/{id}", s.handleGet)
	mux.HandleFunc("DELETE /api/v1/campaigns/{id}", s.handleCancel)
	mux.HandleFunc("GET /api/v1/campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /api/v1/campaigns/{id}/trace", s.handleTrace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, "unknown route "+r.URL.Path)
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	//benchlint:allow uncheckederr — the response is already committed
	enc.Encode(v)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := Health{
		State:     "serving",
		Queued:    len(s.queue),
		Running:   s.running,
		Campaigns: len(s.campaigns),
	}
	if s.draining || s.crashed {
		h.State = "draining"
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, h)
}

// handleSubmit accepts a campaign: decode strictly, validate against the
// inventory, enforce the tenant quota and queue bound, clamp budgets to
// the service ceilings, journal the submission durably, then enqueue.
// Only after the fsynced ledger append does the client see 202.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, "daemon is draining; resubmit elsewhere or after restart")
		return
	}
	var spec CampaignSpec
	dec := json.NewDecoder(io.LimitReader(r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "decoding campaign spec: "+err.Error())
		return
	}
	if spec.Tenant == "" {
		spec.Tenant = r.Header.Get(TenantHeader)
	}
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Budget clamps: the PR 1 per-invocation budgets, bounded by service
	// policy. Zero (unlimited) requests get the ceiling outright.
	if spec.MaxSteps == 0 || spec.MaxSteps > s.opts.MaxStepBudget {
		spec.MaxSteps = s.opts.MaxStepBudget
	}
	if wall := int64(s.opts.MaxWallBudget.Milliseconds()); spec.WallBudgetMs == 0 || spec.WallBudgetMs > wall {
		spec.WallBudgetMs = wall
	}

	s.mu.Lock()
	if s.draining || s.crashed {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "daemon is draining")
		return
	}
	if len(s.queue) >= s.opts.QueueDepth {
		s.mu.Unlock()
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("queue full (%d campaigns pending); retry later", s.opts.QueueDepth))
		return
	}
	inflight := 0
	for _, c := range s.campaigns {
		if c.tenant == spec.Tenant && !c.state.Terminal() {
			inflight++
		}
	}
	if inflight >= s.opts.TenantQuota {
		s.mu.Unlock()
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("tenant %q has %d campaigns in flight (quota %d); wait or cancel one",
				spec.Tenant, inflight, s.opts.TenantQuota))
		return
	}
	id := fmt.Sprintf("c%06d", s.nextID)
	s.nextID++
	if err := s.ledger.appendSubmit(id, spec.Tenant, spec); err != nil {
		s.mu.Unlock()
		writeError(w, http.StatusInternalServerError, "journaling submission: "+err.Error())
		return
	}
	c := newCampaign(id, spec.Tenant, spec, StateQueued)
	s.campaigns[id] = c
	s.order = append(s.order, id)
	s.queue = append(s.queue, c)
	s.cond.Signal()
	status := s.statusLocked(c, StateQueued, "", nil)
	s.mu.Unlock()

	c.events.append(EventState, StateChange{ID: id, State: StateQueued})
	s.opts.Logf("controlapi: accepted campaign %s (%v) for tenant %s", id, spec.Benchmarks, spec.Tenant)
	writeJSON(w, http.StatusAccepted, status)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]CampaignStatus, 0, len(s.order))
	for _, id := range s.order {
		c := s.campaigns[id]
		out = append(out, s.statusLocked(c, c.state, c.errMsg, nil))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

// lookup resolves a campaign id, writing the 404 itself on a miss.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *campaign {
	id := r.PathValue("id")
	s.mu.Lock()
	c := s.campaigns[id]
	s.mu.Unlock()
	if c == nil {
		writeError(w, http.StatusNotFound, "unknown campaign "+id)
		return nil
	}
	return c
}

// handleGet returns a campaign's status; terminal campaigns carry their
// results — from memory when this process ran them, otherwise from the
// persisted result document (a daemon serves its whole history across
// restarts).
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	c := s.lookup(w, r)
	if c == nil {
		return
	}
	s.mu.Lock()
	state, errMsg, results := c.state, c.errMsg, c.results
	s.mu.Unlock()
	if state.Terminal() && results == nil {
		if doc, err := s.ledger.loadResult(c.id); err == nil && doc != nil {
			// The persisted document IS the response (byte-stable).
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			//benchlint:allow uncheckederr — the response is already committed
			w.Write(doc)
			return
		}
	}
	writeJSON(w, http.StatusOK, s.statusLocked(c, state, errMsg, results))
}

// handleCancel cancels a campaign. Queued: finalized immediately. Running:
// its context ends, the VM aborts within one poll interval (an isolated
// child is killed at once), and the executor finalizes. Terminal: 409 —
// the outcome exists and will not be unmade.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	c := s.lookup(w, r)
	if c == nil {
		return
	}
	s.mu.Lock()
	state := c.state
	if state.Terminal() {
		s.mu.Unlock()
		writeError(w, http.StatusConflict,
			fmt.Sprintf("campaign %s already %s", c.id, state))
		return
	}
	c.cancel(errCancelledByClient)
	finalizeNow := false
	if state == StateQueued {
		for i, qc := range s.queue {
			if qc == c {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				finalizeNow = true
				break
			}
		}
	}
	s.mu.Unlock()
	if finalizeNow {
		if err := s.ledger.appendOutcome(c.id, StateCancelled, "cancelled before start"); err != nil {
			s.opts.Logf("controlapi: %s: journaling cancellation: %v", c.id, err)
		}
		s.setState(c, StateCancelled, "cancelled before start")
	}
	s.mu.Lock()
	status := s.statusLocked(c, c.state, c.errMsg, nil)
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, status)
}

// handleEvents streams a campaign's event log as Server-Sent Events,
// replaying from the requested position (?from= or Last-Event-ID) and
// following live until the campaign is terminal or the client leaves.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	c := s.lookup(w, r)
	if c == nil {
		return
	}
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad from position "+v)
			return
		}
		from = n
	} else if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 {
			from = n + 1
		}
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	//benchlint:allow uncheckederr — http.Flusher.Flush has no error return
	flusher.Flush()

	ctx := r.Context()
	go func() {
		<-ctx.Done()
		c.events.wake()
	}()
	stop := func() bool { return ctx.Err() != nil }
	for {
		ev, ok := c.events.next(from, stop)
		if !ok {
			return
		}
		from = ev.Seq + 1
		if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, ev.Data); err != nil {
			return
		}
		//benchlint:allow uncheckederr — http.Flusher.Flush has no error return
		flusher.Flush()
	}
}

// handleTrace serves the Chrome trace-event timeline of a campaign run by
// this process (traces are in-memory observability, not durable state).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	c := s.lookup(w, r)
	if c == nil {
		return
	}
	s.mu.Lock()
	tracer, terminal := c.tracer, c.state.Terminal()
	s.mu.Unlock()
	if tracer == nil || !terminal {
		writeError(w, http.StatusNotFound,
			"trace unavailable (campaign still running, or finished before a restart)")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if err := tracer.Export(w); err != nil {
		s.opts.Logf("controlapi: %s: exporting trace: %v", c.id, err)
	}
}
