package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/telemetry"
)

var (
	ctrJobsSubmitted = telemetry.NewCounter("service.jobs_submitted")
	ctrJobsRejected  = telemetry.NewCounter("service.jobs_rejected_busy")
	ctrJobsCached    = telemetry.NewCounter("service.jobs_served_cached")
	ctrJobsEvicted   = telemetry.NewCounter("service.jobs_evicted")
	gaugeQueueDepth  = telemetry.NewGauge("service.queue_depth")
)

// Config sizes the daemon. The zero value gets sensible defaults from
// NewServer.
type Config struct {
	// Workers is the generation worker count (default: harness.Parallelism).
	Workers int
	// QueueDepth bounds the number of accepted-but-not-running jobs; a full
	// queue rejects submissions with 429 and a Retry-After hint.
	QueueDepth int
	// CacheEntries bounds the in-memory result cache (default 64).
	CacheEntries int
	// CacheDir, when set, adds a persistent on-disk cache tier.
	CacheDir string
	// CacheDiskEntries bounds the on-disk tier's file count (default 512);
	// the oldest entries are pruned first. Ignored when CacheDir is empty.
	CacheDiskEntries int
	// JobHistory bounds how many finished (done/failed/canceled) jobs stay
	// listable (default 256); the oldest are evicted first, so the job table
	// cannot grow without bound in a long-running daemon. Queued and running
	// jobs are never evicted and do not count against the bound.
	JobHistory int
	// JobTimeout bounds each job's pipeline, traced run included (default
	// 2 minutes), measured from when a worker dequeues the job — time spent
	// queued behind other work never consumes the budget. The timeout
	// propagates into the simulated world, so a deadlocked or oversized job
	// is torn down, not leaked.
	JobTimeout time.Duration
	// RetryAfter is the backoff hint attached to 429 responses (default 1s).
	RetryAfter time.Duration
	// Logger receives one structured line per job lifecycle transition
	// (submitted, running, done/failed/canceled) carrying the job id, the
	// canonical request hash, cache hit/miss, queue wait and run duration.
	// Nil discards the log (tests); benchd passes a JSON handler.
	Logger *slog.Logger
}

// Server is the benchd daemon: HTTP handlers over a bounded job pool and a
// content-addressed result cache.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	pool  *harness.Pool
	cache *cache
	log   *slog.Logger

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // job IDs in submission order, for GET /v1/jobs
	jobSeq int

	baseCtx    context.Context
	baseCancel context.CancelFunc
	draining   bool
	drained    chan struct{}
	timeline   *telemetry.Timeline
}

// NewServer builds a ready-to-serve daemon. Callers wanting the telemetry
// counters and region spans populated must telemetry.Enable() first (cmd/
// benchd does).
func NewServer(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = harness.Parallelism()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 64
	}
	if cfg.CacheDiskEntries <= 0 {
		cfg.CacheDiskEntries = 512
	}
	if cfg.JobHistory <= 0 {
		cfg.JobHistory = 256
	}
	if cfg.JobTimeout <= 0 {
		cfg.JobTimeout = 2 * time.Minute
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	c, err := newCache(cfg.CacheEntries, cfg.CacheDir, cfg.CacheDiskEntries)
	if err != nil {
		return nil, err
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		pool:       harness.NewPool(cfg.Workers, cfg.QueueDepth),
		cache:      c,
		log:        cfg.Logger,
		jobs:       make(map[string]*Job),
		baseCtx:    ctx,
		baseCancel: cancel,
		drained:    make(chan struct{}),
		timeline:   telemetry.NewTimeline(),
	}
	telemetry.CaptureRegions(s.timeline)
	s.mux = http.NewServeMux()
	s.routes()
	return s, nil
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/source", s.handleSource)
	s.mux.HandleFunc("GET /v1/jobs/{id}/profile", s.handleProfile)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("POST /v1/generate", s.handleGenerate)
	s.mux.HandleFunc("POST /v1/verify", s.handleVerify)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /timeline", s.handleTimeline)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
}

// Handler returns the daemon's HTTP handler (one mux carries the job API,
// /metrics, /timeline and /healthz).
func (s *Server) Handler() http.Handler { return s.mux }

// start admits one request: served from cache as a born-done job, or queued
// on the pool. It returns the job and the HTTP status to respond with; on
// admission failure the job is nil and err describes it.
func (s *Server) start(req *Request) (*Job, int, error) {
	if err := req.normalize(); err != nil {
		return nil, http.StatusBadRequest, err
	}
	key := req.Key()
	if res, tier := s.cache.get(key); res != nil {
		job := s.register(req)
		job.finishCached(res, tier)
		ctrJobsCached.Inc()
		s.log.Info("job done", "job", job.id, "key", key,
			"app", req.App, "n", req.N, "lang", req.Lang,
			"state", StateDone, "cache", tier,
			"queue_wait_ms", 0.0, "run_ms", 0.0)
		return job, http.StatusOK, nil
	}

	// Uploads are fully validated (decoded, world size capped) before a job
	// exists for them, so an unrunnable trace is a 400 at admission, never a
	// multi-gigabyte allocation inside a worker.
	if req.Trace != "" {
		if err := req.validateTrace(); err != nil {
			return nil, http.StatusBadRequest, err
		}
	}

	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		return nil, http.StatusServiceUnavailable, errors.New("server is shutting down")
	}

	job := s.register(req)
	// The job context is cancel-only; the pipeline deadline is applied when a
	// worker picks the job up, so queue wait never consumes the budget.
	jctx, cancel := context.WithCancel(s.baseCtx)
	job.mu.Lock()
	job.cancel = cancel
	job.mu.Unlock()

	err := s.pool.Submit(jctx, func(ctx context.Context) {
		defer cancel()
		// The pool contains panics to keep its worker alive, but it cannot
		// finish the job; without this, a panicking pipeline would leave the
		// job "running" forever and wedge every waiter on job.Done.
		defer func() {
			if r := recover(); r != nil {
				job.finish(nil, fmt.Errorf("job panicked: %v", r), false)
				s.logTerminal(job)
				panic(r) // re-panic so the pool still counts and logs it
			}
		}()
		job.setRunning()
		s.log.Info("job running", "job", job.id, "key", key,
			"state", StateRunning, "cache", "miss",
			"queue_wait_ms", durMS(job.queueWait()))
		rctx, rcancel := context.WithTimeout(ctx, s.cfg.JobTimeout)
		defer rcancel()
		res, err := runPipelineFn(rctx, req, job.setStage)
		if err == nil {
			// A cache-write failure degrades to recompute-next-time; the
			// client still gets its result.
			_ = s.cache.put(key, res)
		}
		job.finish(res, err, errors.Is(err, context.Canceled))
		s.logTerminal(job)
	})
	if err != nil {
		cancel()
		s.unregister(job.id)
		if errors.Is(err, harness.ErrQueueFull) {
			ctrJobsRejected.Inc()
			return nil, http.StatusTooManyRequests, err
		}
		return nil, http.StatusServiceUnavailable, err
	}
	ctrJobsSubmitted.Inc()
	s.log.Info("job submitted", "job", job.id, "key", key,
		"app", req.App, "n", req.N, "lang", req.Lang, "state", StateQueued,
		"cache", "miss")
	return job, http.StatusAccepted, nil
}

// durMS rounds a duration to fractional milliseconds for the job log.
func durMS(d time.Duration) float64 {
	return float64(d.Round(10*time.Microsecond)) / float64(time.Millisecond)
}

// logTerminal emits the one completion line every job gets when it reaches
// done/failed/canceled off the worker path.
func (s *Server) logTerminal(job *Job) {
	st := job.Status()
	attrs := []any{"job", st.ID, "key", st.Key,
		"app", st.App, "n", st.N, "lang", st.Lang,
		"state", st.State, "cache", "miss",
		"queue_wait_ms", durMS(job.queueWait()),
		"run_ms", durMS(job.runDuration())}
	if st.Error != "" {
		attrs = append(attrs, "error", st.Error)
	}
	s.log.Info("job "+st.State, attrs...)
}

func (s *Server) register(req *Request) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobSeq++
	job := newJob(fmt.Sprintf("j-%06d", s.jobSeq), req)
	s.jobs[job.id] = job
	s.order = append(s.order, job.id)
	s.evictLocked()
	return job
}

// evictLocked bounds the retained job table: once more than cfg.JobHistory
// terminal jobs are held, the oldest terminal ones are dropped (their trace
// payloads were already released at finish). Live jobs are never touched, so
// an accepted job can always be polled to completion. Called with s.mu held.
func (s *Server) evictLocked() {
	terminal := 0
	for _, id := range s.order {
		if s.jobs[id].terminal() {
			terminal++
		}
	}
	for i := 0; terminal > s.cfg.JobHistory && i < len(s.order); {
		id := s.order[i]
		if !s.jobs[id].terminal() {
			i++
			continue
		}
		delete(s.jobs, id)
		s.order = append(s.order[:i], s.order[i+1:]...)
		terminal--
		ctrJobsEvicted.Inc()
	}
}

func (s *Server) unregister(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, id)
	for i, jid := range s.order {
		if jid == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

func (s *Server) job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// maxRequestBytes bounds a request body. The trace codec's MaxDecode* limits
// apply only once the whole "trace" string is in memory, so the body itself
// is capped first; the largest upload the benchmark ledger sends is under
// 1 MB, which leaves two orders of magnitude.
const maxRequestBytes = 64 << 20

// decodeRequest reads a request body into req, answering an oversized body
// with 413 and malformed JSON or an unknown field — a removed one such as
// "runtime", or a misspelt one — with 400. It reports whether req is usable.
func decodeRequest(w http.ResponseWriter, r *http.Request, req *Request) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(req)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		http.Error(w, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
	} else {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
	}
	return false
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	if !decodeRequest(w, r, &req) {
		return
	}
	job, status, err := s.start(&req)
	if err != nil {
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
		}
		http.Error(w, err.Error(), status)
		return
	}
	writeJSON(w, status, job.Status())
}

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	s.handleSync(w, r, false)
}

// handleVerify is the synchronous verification endpoint: the request runs
// through the same admission, cache and job pool as /v1/generate, with the
// model-checker stage forced on, so identical verification requests are
// served from the content-addressed cache without re-exploring the state
// space.
func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	s.handleSync(w, r, true)
}

func (s *Server) handleSync(w http.ResponseWriter, r *http.Request, verify bool) {
	var req Request
	if !decodeRequest(w, r, &req) {
		return
	}
	if verify {
		req.Verify = true
	}
	job, status, err := s.start(&req)
	if err != nil {
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
		}
		http.Error(w, err.Error(), status)
		return
	}
	select {
	case <-job.Done():
	case <-r.Context().Done():
		// The client went away; stop paying for its job.
		job.requestCancel()
		<-job.Done()
		return
	}
	res, jerr := job.Outcome()
	if jerr != nil {
		http.Error(w, jerr.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		if j := s.jobs[id]; j != nil {
			out = append(out, j.Status())
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job := s.job(r.PathValue("id"))
	if job == nil {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job := s.job(r.PathValue("id"))
	if job == nil {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	st := job.Status()
	switch st.State {
	case StateDone:
		res, _ := job.Outcome()
		writeJSON(w, http.StatusOK, res)
	case StateFailed, StateCanceled:
		http.Error(w, st.Error, http.StatusInternalServerError)
	default:
		// Not ready yet: report progress, not an error.
		writeJSON(w, http.StatusAccepted, st)
	}
}

func (s *Server) handleSource(w http.ResponseWriter, r *http.Request) {
	job := s.job(r.PathValue("id"))
	if job == nil {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	if job.Status().State != StateDone {
		http.Error(w, "job not done", http.StatusConflict)
		return
	}
	res, _ := job.Outcome()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, res.Source)
}

// handleProfile serves the job's causal critical-path and wait-state
// profile. Results cached by versions that predate the profiler have no
// profile; that is a 404, not an error.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	job := s.job(r.PathValue("id"))
	if job == nil {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	if job.Status().State != StateDone {
		http.Error(w, "job not done", http.StatusConflict)
		return
	}
	res, _ := job.Outcome()
	if res == nil || res.CritPath == nil {
		http.Error(w, "no profile recorded for this job", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, res.CritPath)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job := s.job(r.PathValue("id"))
	if job == nil {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	if !job.requestCancel() {
		writeJSON(w, http.StatusConflict, job.Status())
		return
	}
	// Cancellation is asynchronous: a queued job's cancel takes effect when
	// a worker dequeues it, so report the request as accepted and let the
	// client poll for the terminal state rather than holding the handler.
	select {
	case <-job.Done():
		writeJSON(w, http.StatusOK, job.Status())
	case <-time.After(2 * time.Second):
		writeJSON(w, http.StatusAccepted, job.Status())
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	gaugeQueueDepth.Set(int64(s.pool.QueueLen()))
	telemetry.ServeMetricsHTTP(w, r, telemetry.Default)
}

func (s *Server) handleTimeline(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.timeline.WriteChrome(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Shutdown drains the daemon: new submissions are refused with 503, every
// accepted job runs to completion, then the method returns. If ctx expires
// first, the remaining jobs' contexts are cancelled — which tears down their
// simulated worlds — and Shutdown still waits for the workers to unwind, so
// no goroutine outlives the daemon either way. Shutdown is idempotent;
// concurrent callers all block until the drain completes.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	first := !s.draining
	s.draining = true
	s.mu.Unlock()
	if !first {
		<-s.drained
		return nil
	}

	done := make(chan struct{})
	go func() {
		s.pool.Drain()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.baseCancel()
		<-done
	}
	s.baseCancel()
	// The workers are quiesced; release the pooled worlds' memory and stop
	// their persistent rank goroutines. The shared pool stays usable (cold
	// builds) for any co-hosted harness work that outlives the daemon.
	harness.SharedEngine().Close()
	telemetry.CaptureRegions(nil)
	close(s.drained)
	return err
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func retryAfterSeconds(d time.Duration) string {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}
