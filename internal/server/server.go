package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/attack"
	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/sat"
)

// Config tunes a daemon instance.
type Config struct {
	// Dir is the job-store directory (created if missing).
	Dir string
	// Workers is the job worker-pool size; <= 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the number of queued (undispatched) jobs;
	// submissions beyond it get 429 + Retry-After. <= 0 means 256.
	QueueDepth int
	// TenantConcurrency caps concurrently running jobs per tenant
	// (X-API-Key header; empty key = the "anonymous" tenant). A tenant
	// at its cap queues behind itself without starving other tenants.
	// <= 0 means no cap.
	TenantConcurrency int
	// TenantRate / TenantBurst rate-limit job submissions per tenant
	// (token bucket, submissions/second). Rate <= 0 disables limiting.
	TenantRate  float64
	TenantBurst int
	// JobWorkers bounds each job's intra-attack parallelism
	// (Target.Workers); a job asking for more is clamped. <= 0 means
	// GOMAXPROCS.
	JobWorkers int
	// JobTimeout bounds any job that does not set its own timeout;
	// 0 means unbounded.
	JobTimeout time.Duration
	// Memo, when non-nil, is a daemon-global cross-query verdict cache
	// (sat.NewMemo) shared by every job's solvers: repeated submissions
	// of the same instance answer repeated SAT queries from the cache.
	// Verdicts are unchanged — the cache replays query history on
	// misses — and its counters surface as the attackd_memo_* series of
	// GET /metrics.prom.
	Memo *sat.Memo
	// TraceSpans, when > 0, keeps an in-memory span trace per job: each
	// job runs under an obs.Tracer emitting to a bounded ring of this
	// capacity (oldest spans evicted), served as NDJSON from
	// GET /jobs/{id}/trace. 0 disables per-job tracing.
	TraceSpans int
	// Logger, when non-nil, receives structured log records: one per
	// job transition and one per API request (method, path, tenant, job
	// id, status, duration).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = runtime.GOMAXPROCS(0)
	}
	return c
}

// AnonymousTenant is the tenant jobs submitted without an X-API-Key
// header belong to.
const AnonymousTenant = "anonymous"

// Server is the attack-as-a-service daemon: a bounded job queue and
// worker pool over the attack registry, a durable job store, per-job
// event streams, and the HTTP handlers tying them together. Construct
// with New, mount Handler on an http.Server, call Start, and Drain on
// shutdown.
type Server struct {
	cfg     Config
	store   *Store
	queue   *queue
	limiter *rateLimiter
	started time.Time

	reg          *obs.Registry  // Prometheus-text metrics, served at /metrics.prom
	jobSeconds   *obs.Histogram // wall-clock of finished job runs
	solveSeconds *obs.Histogram // per-job cumulative SAT solve time

	mu       sync.Mutex
	jobs     map[string]*Job
	cancels  map[string]context.CancelFunc
	events   map[string][]Event // per-job history, replayed to late subscribers
	subs     map[string]map[chan Event]bool
	seq      map[string]int64 // per-job event sequence
	traces   map[string]*obs.Ring
	draining bool
	drainNow bool // grace expired: dispatch must not start anything

	wg sync.WaitGroup // worker goroutines
}

// New opens the job store and recovers persisted state: terminal jobs
// become fetchable artifacts, queued jobs re-enqueue, and jobs a
// previous daemon left running (crash or drain mid-solve) fall back to
// queued and re-enqueue — the atomic store guarantees whatever is on
// disk is complete, so recovery is a pure state-machine walk.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	store, err := OpenStore(cfg.Dir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		store:   store,
		queue:   newQueue(cfg.QueueDepth, cfg.TenantConcurrency),
		limiter: newRateLimiter(cfg.TenantRate, cfg.TenantBurst),
		started: time.Now(),
		jobs:    map[string]*Job{},
		cancels: map[string]context.CancelFunc{},
		events:  map[string][]Event{},
		subs:    map[string]map[chan Event]bool{},
		seq:     map[string]int64{},
		traces:  map[string]*obs.Ring{},
	}
	s.buildRegistry()
	jobs, err := store.List()
	if err != nil {
		return nil, err
	}
	for _, j := range jobs {
		if !j.State.Terminal() {
			j.State = StateQueued
			j.Started = nil
			if err := store.Put(j); err != nil {
				return nil, err
			}
		}
		s.jobs[j.ID] = j
	}
	// Re-enqueue in List's deterministic oldest-first order, overflow
	// impossible: recovery happens before any submission, and the queue
	// held these jobs before (enlarge QueueDepth if it still overflows
	// a shrunken config).
	for _, j := range jobs {
		if j.State.Terminal() {
			continue
		}
		if err := s.queue.Enqueue(j.ID, j.Tenant); err != nil {
			return nil, fmt.Errorf("server: re-enqueue recovered job %s: %w", j.ID, err)
		}
	}
	return s, nil
}

// Start launches the worker pool.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				id, tenant, ok := s.queue.Dequeue()
				if !ok {
					return
				}
				s.runJob(id)
				s.queue.Release(tenant)
			}
		}()
	}
}

// Drain shuts the daemon down gracefully: stop dispatching, give
// in-flight jobs up to grace to finish, then cancel the stragglers —
// which revert to queued on disk, so a restarted daemon resumes them.
// The atomic store means either outcome leaves only complete job files.
func (s *Server) Drain(grace time.Duration) {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.queue.Close()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	timer := time.NewTimer(grace)
	defer timer.Stop()
	select {
	case <-done:
		return
	case <-timer.C:
	}
	s.mu.Lock()
	s.drainNow = true // a dequeued-but-not-started job must stay queued
	for id, cancel := range s.cancels {
		if j := s.jobs[id]; j != nil && !j.userCancel {
			j.drainCancel = true
		}
		cancel()
	}
	s.mu.Unlock()
	<-done
}

// log returns the configured structured logger, or a discard logger
// when logging is off — call sites never branch.
func (s *Server) log() *slog.Logger {
	if s.cfg.Logger != nil {
		return s.cfg.Logger
	}
	return slog.New(slog.DiscardHandler)
}

// publish appends a job event to the history and fans it out to live
// subscribers. Called with s.mu held.
func (s *Server) publishLocked(j *Job, status, detail string) {
	s.seq[j.ID]++
	ev := Event{
		Seq:    s.seq[j.ID],
		Time:   time.Now(),
		Type:   EventJob,
		Job:    j.ID,
		State:  string(j.State),
		Status: status,
		Detail: detail,
	}
	s.events[j.ID] = append(s.events[j.ID], ev)
	for ch := range s.subs[j.ID] {
		select {
		case ch <- ev:
		default: // subscriber is not draining; it will catch up from state
		}
	}
}

// subscribe returns the job's event history and, for a live job, a
// registered channel for subsequent events (nil for terminal jobs — the
// history already ends in the terminal event). An empty history (daemon
// restarted since the transition) synthesizes a snapshot event of the
// current state.
func (s *Server) subscribe(id string) (history []Event, ch chan Event, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, exists := s.jobs[id]
	if !exists {
		return nil, nil, false
	}
	history = append(history, s.events[id]...)
	if len(history) == 0 {
		s.seq[id]++
		history = append(history, Event{
			Seq: s.seq[id], Time: time.Now(), Type: EventJob,
			Job: id, State: string(j.State),
		})
	}
	if j.State.Terminal() {
		return history, nil, true
	}
	ch = make(chan Event, 16)
	if s.subs[id] == nil {
		s.subs[id] = map[chan Event]bool{}
	}
	s.subs[id][ch] = true
	return history, ch, true
}

func (s *Server) unsubscribe(id string, ch chan Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.subs[id], ch)
}

// runJob executes one dequeued job end to end: transition to running,
// resolve the spec, run the attack under the job's context, and
// finalize — done/failed/cancelled, or back to queued when a graceful
// drain cut the solve short.
func (s *Server) runJob(id string) {
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil || j.State != StateQueued || j.userCancel || s.drainNow {
		// A DELETE raced the dispatch; finalize the cancellation here
		// if the delete handler could not (job already dequeued). A
		// hard drain racing the dispatch instead leaves the job queued
		// on disk for the next daemon.
		if j != nil && j.State == StateQueued && j.userCancel {
			s.finalizeLocked(j, StateCancelled, nil, "", "")
		}
		s.mu.Unlock()
		return
	}
	now := time.Now()
	j.State = StateRunning
	j.Started = &now
	ctx, cancel := context.WithCancel(context.Background())
	s.cancels[id] = cancel
	spec := j.Spec
	tenant := j.Tenant
	if err := s.store.Put(j); err != nil {
		s.log().Error("persist job", "job", id, "err", err)
	}
	s.publishLocked(j, "", "")
	s.mu.Unlock()
	s.log().Info("job running", "job", id, "attack", spec.Attack, "tenant", tenant)
	defer cancel()

	timeout := spec.Timeout
	if timeout <= 0 {
		timeout = s.cfg.JobTimeout
	}
	runCtx := ctx
	if timeout > 0 {
		var tcancel context.CancelFunc
		runCtx, tcancel = context.WithTimeout(ctx, timeout)
		defer tcancel()
	}
	if spec.Workers <= 0 || spec.Workers > s.cfg.JobWorkers {
		spec.Workers = s.cfg.JobWorkers
	}

	start := time.Now()
	r, rerr := spec.Resolve()
	var res *attack.Result
	var setup *attack.SolverSetup
	if rerr == nil {
		var root *obs.Span
		if s.cfg.TraceSpans > 0 {
			// Per-job span trace into a bounded ring, served from
			// GET /jobs/{id}/trace.
			ring := obs.NewRing(s.cfg.TraceSpans)
			root = obs.New(ring).Start("job", "job", id, "attack", spec.Attack, "tenant", tenant)
			runCtx = obs.With(runCtx, root)
			s.mu.Lock()
			s.traces[id] = ring
			s.mu.Unlock()
		}
		// The daemon-global verdict cache and the trace attach to the
		// job's engine spec; on the default spec they build exactly the
		// default engine, so verdicts are unchanged.
		setup = attack.NewSolverSetup(r.engine, s.cfg.Memo, root != nil)
		r.target.Solver = setup.Factory()
		res, rerr = r.atk.Run(runCtx, r.target)
		if res != nil {
			root.Set("status", res.Status.String())
		}
		root.End()
	}
	wall := time.Since(start)

	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.cancels, id)
	switch {
	case j.userCancel:
		s.finalizeLocked(j, StateCancelled, nil, "", "")
	case j.drainCancel:
		// The drain cancelled this solve; no result to persist. Back to
		// queued on disk, so the next daemon picks it up from scratch.
		j.State = StateQueued
		j.Started = nil
		j.drainCancel = false
		if err := s.store.Put(j); err != nil {
			s.log().Error("persist job", "job", id, "err", err)
		}
		s.publishLocked(j, "", "requeued by graceful drain")
	case rerr != nil:
		s.jobSeconds.Observe(wall.Seconds())
		s.finalizeLocked(j, StateFailed, nil, rerr.Error(), "")
	default:
		s.jobSeconds.Observe(wall.Seconds())
		if solve := setup.SolveTime(); solve > 0 {
			s.solveSeconds.Observe(solve.Seconds())
		}
		rj := res.RunJSON(setup, wall)
		recovered := ""
		if res.Recovered != nil {
			recovered = bench.WriteString(res.Recovered)
		}
		s.finalizeLocked(j, StateDone, &rj, "", recovered)
	}
}

// finalizeLocked moves a job to a terminal state, persists it and
// publishes the terminal event. Called with s.mu held.
func (s *Server) finalizeLocked(j *Job, state JobState, res *attack.ResultJSON, errMsg, recovered string) {
	now := time.Now()
	j.State = state
	j.Finished = &now
	j.Error = errMsg
	j.Result = res
	j.RecoveredBench = recovered
	if err := s.store.Put(j); err != nil {
		s.log().Error("persist job", "job", j.ID, "err", err)
	}
	status := ""
	if res != nil {
		status = res.Status.String()
	}
	s.publishLocked(j, status, errMsg)
	attrs := []any{"job", j.ID, "state", string(state)}
	if status != "" {
		attrs = append(attrs, "status", status)
	}
	if errMsg != "" {
		attrs = append(attrs, "err", errMsg)
	}
	s.log().Info("job finished", attrs...)
}

// Handler returns the daemon's HTTP API:
//
//	POST   /jobs             submit a job (JobSpec body) → 202 JobView
//	GET    /jobs             list jobs (JobView array)
//	GET    /jobs/{id}        one job's JobView
//	GET    /jobs/{id}/events stream status events (SSE or NDJSON)
//	GET    /jobs/{id}/result the persisted result artifact (terminal jobs)
//	GET    /jobs/{id}/trace  the job's span trace as NDJSON (Config.TraceSpans > 0)
//	DELETE /jobs/{id}        cancel a queued or running job
//	GET    /metrics.prom     queue/job/tenant/engine/memo statistics and latency histograms, Prometheus text format
//	GET    /healthz          liveness probe
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /metrics.prom", s.handlePromMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	return s.withRequestLog(mux)
}

// withRequestLog logs one structured line per API call: method, path,
// tenant, job id (when the path names one), response status, duration.
// A nil Config.Logger bypasses the wrapper entirely.
func (s *Server) withRequestLog(next http.Handler) http.Handler {
	if s.cfg.Logger == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		attrs := []any{
			"method", r.Method, "path", r.URL.Path, "tenant", tenantOf(r),
			"status", status, "dur", time.Since(start),
		}
		if id := jobIDFromPath(r.URL.Path); id != "" {
			attrs = append(attrs, "job", id)
		}
		s.cfg.Logger.Info("request", attrs...)
	})
}

// statusWriter records the response code for the request log. It
// forwards Flush so event streams keep working through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// jobIDFromPath extracts the job id from /jobs/{id}[/...] paths. The
// request-log middleware runs outside the mux, so PathValue is not
// populated yet.
func jobIDFromPath(path string) string {
	rest, ok := strings.CutPrefix(path, "/jobs/")
	if !ok || rest == "" {
		return ""
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// tenantOf extracts the submitting tenant from the API-key header.
func tenantOf(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return k
	}
	return AnonymousTenant
}

type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// maxJobBody bounds a job submission (two BENCH netlists plus key
// candidates fit comfortably; a paper-scale locked netlist is ~MBs).
const maxJobBody = 64 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenant := tenantOf(r)
	if ok, wait := s.limiter.Allow(tenant, time.Now()); !ok {
		w.Header().Set("Retry-After", strconv.Itoa(int(wait.Seconds())+1))
		writeError(w, http.StatusTooManyRequests, "tenant %s over submission rate limit, retry in %v", tenant, wait.Round(time.Millisecond))
		return
	}
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "parse job spec: %v", err)
		return
	}
	if _, err := spec.Resolve(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	id, err := newJobID()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "mint job ID: %v", err)
		return
	}
	j := &Job{ID: id, Tenant: tenant, State: StateQueued, Spec: spec, Created: time.Now()}
	view := j.View() // captured before workers can see (and mutate) the job

	// Persist and index before enqueueing so a worker can never dequeue
	// a job the store does not know; unwind both on backpressure.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "daemon is shutting down")
		return
	}
	if err := s.store.Put(j); err != nil {
		s.mu.Unlock()
		writeError(w, http.StatusInternalServerError, "persist job: %v", err)
		return
	}
	s.jobs[id] = j
	s.publishLocked(j, "", "")
	s.mu.Unlock()

	if err := s.queue.Enqueue(id, tenant); err != nil {
		s.mu.Lock()
		delete(s.jobs, id)
		delete(s.events, id)
		delete(s.seq, id)
		s.mu.Unlock()
		s.store.Delete(id)
		if errors.Is(err, ErrQueueFull) {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "job queue full (%d queued), retry later", s.queue.Depth())
			return
		}
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	s.log().Info("job queued", "job", id, "attack", spec.Attack, "tenant", tenant)
	w.Header().Set("Location", "/jobs/"+id)
	writeJSON(w, http.StatusAccepted, view)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]JobView, 0, len(s.jobs))
	for _, j := range s.jobs {
		views = append(views, j.View())
	}
	s.mu.Unlock()
	sort.Slice(views, func(a, b int) bool {
		if !views[a].Created.Equal(views[b].Created) {
			return views[a].Created.Before(views[b].Created)
		}
		return views[a].ID < views[b].ID
	})
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return nil, false
	}
	return j, true
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	view := j.View()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	state := j.State
	s.mu.Unlock()
	if !state.Terminal() {
		writeError(w, http.StatusConflict, "job %s is %s; the result artifact exists once the job is terminal", j.ID, state)
		return
	}
	// Serve the persisted artifact byte-for-byte: what is on disk is
	// what the client gets, the same single-source-of-truth contract as
	// campaign artifacts.
	data, err := s.store.Raw(j.ID)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "read artifact: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// handleTrace serves a job's retained span trace as NDJSON — the same
// line format cmd/tracestat reads, so `curl .../trace > t.ndjson &&
// tracestat t.ndjson` analyzes a daemon job like a CLI trace file.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	ring := s.traces[j.ID]
	s.mu.Unlock()
	if ring == nil {
		writeError(w, http.StatusNotFound,
			"no trace for job %s (daemon tracing is disabled, or the job has not started running)", j.ID)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for _, sp := range ring.Snapshot() {
		if err := enc.Encode(sp); err != nil {
			return
		}
	}
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	history, ch, ok := s.subscribe(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	if ch != nil {
		defer s.unsubscribe(id, ch)
	}
	write, contentType := StreamWriter(r)
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	emit := func(ev Event) bool {
		if err := write(w, ev); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	last := ""
	for _, ev := range history {
		if !emit(ev) {
			return
		}
		last = ev.State
	}
	if ch == nil || JobState(last).Terminal() {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-ch:
			if !emit(ev) {
				return
			}
			if JobState(ev.State).Terminal() {
				return
			}
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	switch {
	case j.State.Terminal():
		state := j.State
		s.mu.Unlock()
		writeError(w, http.StatusConflict, "job %s is already %s", j.ID, state)
		return
	case j.State == StateQueued && s.queue.Remove(j.ID):
		// Still in the queue: cancel immediately.
		s.finalizeLocked(j, StateCancelled, nil, "", "")
	default:
		// Dequeued or running: flag it and cut the context; the worker
		// finalizes the cancellation.
		j.userCancel = true
		if cancel := s.cancels[j.ID]; cancel != nil {
			cancel()
		}
	}
	view := j.View()
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, view)
}
