// Package serve is the long-running query layer over the reproduction's
// engines: butterflyd's HTTP/JSON API. Each endpoint parses a query into
// its canonical form, answers from a bounded LRU result cache when it can,
// coalesces concurrent identical queries into one underlying solve, and
// otherwise runs the engines under a per-request deadline threaded into
// solve.Monitor contexts — so an expensive query degrades to a best-so-far
// answer marked non-exact, exactly like the CLI commands under -timeout.
//
// Responses reuse the obs.Manifest run-manifest schema: the same named
// tables the commands write under -json, one document per request, so
// server answers and CLI artifacts are interchangeable downstream.
//
// Overload is explicit, not implicit: a worker semaphore bounds concurrent
// solves, a bounded wait queue absorbs short bursts, and past that the
// server answers 429 (queue full) or 503 (queued too long / draining)
// instead of stacking goroutines. Shutdown drains: in-flight solves are
// signalled to wind down and their handlers still write best-so-far
// responses before the listener closes.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/solve"
	"repro/internal/store"
)

// Registry metrics of the request path.
var (
	metricSolves      = obs.NewCounter("serve.solves")
	metricErrors      = obs.NewCounter("serve.errors")
	metricRejected429 = obs.NewCounter("serve.rejected_429")
	metricRejected503 = obs.NewCounter("serve.rejected_503")
	metricInflight    = obs.NewGauge("serve.inflight")
)

// requestOutcomes are the outcome-labeled request counters
// (serve.requests.<outcome>) that replaced the old undifferentiated
// serve.requests — which incremented before method/parse validation, so
// a flood of rejected garbage was indistinguishable from served load.
// Every request increments exactly one of these, after its fate is known:
//
//	ok         solved fresh, complete, 200
//	cache_hit  answered from the LRU
//	store_hit  answered from the persistent store
//	coalesced  attached to another request's in-flight solve
//	peer       relayed from the cluster peer owning the key
//	timeout    200 but budget/drain-truncated (best-so-far rows)
//	400/405/422/429/500/503  rejected or failed, by status
var requestOutcomes = func() map[string]*obs.Counter {
	m := make(map[string]*obs.Counter)
	for _, o := range []string{
		"ok", "cache_hit", "store_hit", "coalesced", "peer", "timeout",
		"400", "405", "422", "429", "500", "503",
	} {
		m[o] = obs.NewCounter("serve.requests." + o)
	}
	return m
}()

// classifyOutcome maps a finished request's (status, X-Cache source,
// complete) triple onto its outcome label.
func classifyOutcome(status int, source string, complete bool) string {
	if status != http.StatusOK {
		if _, ok := requestOutcomes[strconv.Itoa(status)]; ok {
			return strconv.Itoa(status)
		}
		return "500"
	}
	if !complete {
		return "timeout"
	}
	switch source {
	case "hit":
		return "cache_hit"
	case "store-hit":
		return "store_hit"
	case "coalesced":
		return "coalesced"
	case "peer":
		return "peer"
	}
	return "ok"
}

// Config tunes a Server. The zero value serves with GOMAXPROCS solve
// workers, a 4×-deep wait queue, a 10s default / 60s maximum deadline and
// a 256-entry result cache.
type Config struct {
	// MaxInflight bounds concurrently running solves (≤0: GOMAXPROCS).
	MaxInflight int
	// MaxQueue bounds requests waiting for a solve slot; past it the
	// server answers 429 immediately (≤0: 4×MaxInflight).
	MaxQueue int
	// QueueWait is how long an admitted-to-queue request waits for a slot
	// before a 503 (≤0: 2s).
	QueueWait time.Duration
	// DefaultDeadline is the solve budget when the request names none
	// (≤0: 10s); MaxDeadline caps client-requested budgets (≤0: 60s).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// CacheEntries bounds the LRU result cache (≤0: 256); CacheBytes
	// bounds its approximate memory footprint (≤0: 64 MiB). Eviction
	// fires on whichever bound trips first.
	CacheEntries int
	CacheBytes   int64
	// Store, when non-nil, is the persistent result store: every complete
	// solve is appended to it before its response is written, cache misses
	// fall back to it (X-Cache: store-hit), Shutdown syncs it, and
	// Precompute batch-fills it. Hits never write.
	Store *store.Store
	// Trace, when non-nil, receives one span per request plus the solver
	// spans of the engines it runs.
	Trace *obs.Tracer
	// AccessLog, when non-nil, receives one structured JSONL record per
	// /v1/* request: request ID, endpoint, canonical key, status, outcome,
	// X-Cache source, µs latency and bytes written.
	AccessLog io.Writer
	// Peers, when non-nil, shards canonical keys across a cluster: after
	// the local cache and store miss, the handler asks the router for the
	// owning peer's response and relays it verbatim (X-Cluster-Peer
	// carries the provenance). Requests the router declines — locally
	// owned, already forwarded once, or the owner is down — solve here.
	Peers PeerRouter
}

func (c Config) withDefaults() Config {
	c.MaxInflight = solve.Workers(c.MaxInflight)
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInflight
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 2 * time.Second
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 10 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 60 * time.Second
	}
	if c.DefaultDeadline > c.MaxDeadline {
		c.DefaultDeadline = c.MaxDeadline
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	return c
}

// Server is the butterflyd query daemon: a hardened http.Server over a
// dedicated mux, the result cache, the coalescing group and the admission
// semaphore. Build it with New, run it with Serve, stop it with Shutdown.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	http   *http.Server
	cache  *lruCache
	flight *flightGroup

	sem    chan struct{}
	queued atomic.Int64

	// baseCtx parents every solve context; Shutdown cancels it so
	// in-flight solves wind down to best-so-far results while their
	// handlers finish writing.
	baseCtx    context.Context
	baseCancel context.CancelFunc
	draining   atomic.Bool

	env       obs.Environment
	startTime time.Time
	accessLog *accessLogger

	// latencies holds each endpoint's serve.latency_us histogram handle
	// (written once at wiring time); /debug/statusz reads quantiles off
	// them.
	latencies map[string]*obs.Histogram

	// Request-ID generation: a per-process base plus a sequence number,
	// so IDs are unique across restarts without coordination.
	idBase string
	idSeq  atomic.Int64

	// solveHook, when non-nil, is invoked by the coalescing leader after
	// admission, before solving. Tests set it (before the server starts)
	// to hold a solve in flight while followers attach; production leaves
	// it nil.
	solveHook func(key string)
}

// response is one rendered API answer. complete reports that the solve
// ran to its natural end (nothing was cancelled by deadline or drain) —
// only complete responses enter the cache and the store, so a
// budget-truncated answer can never mask the full one.
type response struct {
	body     []byte
	complete bool
}

// httpError carries a status code through the solve path.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

var (
	errQueueFull = &httpError{http.StatusTooManyRequests, "solve queue full, retry later"}
	errQueueWait = &httpError{http.StatusServiceUnavailable, "no solve slot within the queue wait, retry later"}
	errDraining  = &httpError{http.StatusServiceUnavailable, "server is draining"}
)

// New builds a Server (not yet listening).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		mux:       http.NewServeMux(),
		flight:    newFlightGroup(),
		sem:       make(chan struct{}, cfg.MaxInflight),
		env:       obs.CaptureEnvironment(),
		startTime: time.Now(),
		accessLog: newAccessLogger(cfg.AccessLog),
		latencies: make(map[string]*obs.Histogram),
		idBase:    strconv.FormatUint(uint64(time.Now().UnixNano())&0xffffffffff, 36),
	}
	// Runtime health gauges refresh on every /debug/metrics scrape (and
	// statusz), so bench reports can correlate tail latency with GC.
	obs.RegisterRuntimeGauges(obs.Default)
	s.cache = newLRUCache(cfg.CacheEntries, cfg.CacheBytes)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())

	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.Handle("/debug/metrics", obs.Default)
	s.mux.HandleFunc("/debug/statusz", s.handleStatusz)
	s.mux.HandleFunc("/v1/bisection", s.handleQuery("bisection", parseBisectionRequest))
	s.mux.HandleFunc("/v1/expansion", s.handleQuery("expansion", parseExpansionRequest))
	s.mux.HandleFunc("/v1/routing", s.handleQuery("routing", parseRoutingRequest))
	s.mux.HandleFunc("/v1/report", s.handleQuery("report", parseReportRequest))

	s.http = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		IdleTimeout:       2 * time.Minute,
		// No WriteTimeout: responses are written after solves that may
		// legitimately run up to MaxDeadline; the solve deadline is the
		// write bound.
	}
	return s
}

// Handler returns the server's dedicated mux — the full API surface —
// for tests and embedding.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on ln until Shutdown; like http.Server.Serve
// it returns http.ErrServerClosed after a clean shutdown.
func (s *Server) Serve(ln net.Listener) error { return s.http.Serve(ln) }

// Shutdown drains the server: /healthz flips to 503 (load balancers stop
// routing), in-flight solves are signalled to wind down — they return
// best-so-far results marked non-exact, and their handlers still write
// those responses — and the HTTP server stops once every handler has
// finished, or when ctx expires. A configured store is synced before
// returning: every complete solve is already in it, and the drain is
// where those appends become durable against a machine crash.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.baseCancel()
	err := s.http.Shutdown(ctx)
	if s.cfg.Store != nil {
		if serr := s.cfg.Store.Sync(); err == nil {
			err = serr
		}
	}
	return err
}

// handleHealthz answers 200 "ok" while serving and 503 "draining" once
// shutdown has begun.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// requestID resolves the request's ID: a well-formed client-supplied
// X-Request-ID is honored (echoed back, so callers can pre-correlate),
// anything else gets a generated one. Either way the ID rides the
// response header, the request's trace span and its access-log line.
func (s *Server) requestID(r *http.Request) string {
	if id := sanitizeRequestID(r.Header.Get("X-Request-ID")); id != "" {
		return id
	}
	return s.idBase + "-" + strconv.FormatInt(s.idSeq.Add(1), 10)
}

// sanitizeRequestID accepts client IDs of 1–64 characters drawn from
// [A-Za-z0-9._-]; anything else (log-injection vectors included) is
// discarded in favor of a generated ID.
func sanitizeRequestID(id string) string {
	if len(id) == 0 || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return ""
		}
	}
	return id
}

// handleQuery wraps one API endpoint: parse → cache → coalesce → admit →
// solve under deadline → render. Around the whole request: the
// endpoint's µs-resolution latency histogram, an outcome counter
// incremented exactly once after the request's fate is known (never
// before validation — a 400 flood must not read as served load), the
// X-Request-ID header, an optional trace span and an access-log line.
func (s *Server) handleQuery(name string, parse func(q queryValues) (queryRequest, error)) http.HandlerFunc {
	latency := obs.NewHistogram("serve.latency_us." + name)
	s.latencies[name] = latency
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		metricInflight.Add(1)
		defer metricInflight.Add(-1)

		id := s.requestID(r)
		w.Header().Set("X-Request-ID", id)

		// The request's fate, filled in as it is decided; the deferred
		// block turns it into the latency observation, the outcome counter
		// and the access-log line.
		status, source, complete := http.StatusOK, "miss", true
		key, written := "", 0
		defer func() {
			us := int64(time.Since(start) / time.Microsecond)
			latency.Observe(us)
			outcome := classifyOutcome(status, source, complete)
			requestOutcomes[outcome].Inc()
			s.accessLog.log(accessRecord{
				ID:        id,
				Endpoint:  name,
				Method:    r.Method,
				Path:      r.URL.RequestURI(),
				Remote:    r.RemoteAddr,
				Key:       key,
				Status:    status,
				Outcome:   outcome,
				Source:    source,
				Complete:  complete,
				LatencyUS: us,
				Bytes:     written,
			})
		}()
		fail := func(err error) {
			status = errorStatus(err)
			s.writeError(w, err)
		}

		if r.Method != http.MethodGet {
			fail(&httpError{http.StatusMethodNotAllowed, "use GET"})
			return
		}
		q := queryValues(r.URL.Query())
		req, err := parse(q)
		if err != nil {
			fail(&httpError{http.StatusBadRequest, err.Error()})
			return
		}
		deadline, err := q.deadline(s.cfg.DefaultDeadline, s.cfg.MaxDeadline)
		if err != nil {
			fail(&httpError{http.StatusBadRequest, err.Error()})
			return
		}
		key = name + "?" + req.Key()

		span := s.cfg.Trace.StartSpan("request", obs.Attrs{"endpoint": name, "key": key, "request_id": id})
		defer func() {
			span.End(obs.Attrs{"status": status, "source": source, "request_id": id})
		}()

		if resp, ok := s.cache.get(key); ok {
			source = "hit"
			written = len(resp.body)
			s.writeResponse(w, resp, source)
			return
		}
		// LRU miss: fall back to the persistent store before solving. A
		// stored body is a past complete solve, served verbatim — a
		// restarted daemon answers everything it (or a precompute batch)
		// ever solved at disk-read cost, no solver invoked.
		if resp, ok := s.storeGet(key); ok {
			source = "store-hit"
			s.cache.put(key, resp)
			written = len(resp.body)
			s.writeResponse(w, resp, source)
			return
		}

		// Cluster mode: a key this node does not own is answered by its
		// owning peer and relayed verbatim — byte-identical to asking the
		// owner directly. The relayed body is deliberately not cached
		// here, so each result occupies cluster cache capacity once. When
		// the router declines (local key, forwarded-in request, owner
		// down), fall through to the local solve.
		if s.cfg.Peers != nil {
			if pr, fwd := s.cfg.Peers.Route(r, key, id); fwd {
				status = pr.Status
				source = "peer"
				written = len(pr.Body)
				w.Header().Set("Content-Type", "application/json; charset=utf-8")
				w.Header().Set("X-Cache", source)
				w.Header().Set("X-Cluster-Peer", pr.Peer)
				if pr.RetryAfter != "" {
					w.Header().Set("Retry-After", pr.RetryAfter)
				}
				if pr.Status != http.StatusOK {
					w.WriteHeader(pr.Status)
				}
				_, _ = w.Write(pr.Body)
				return
			}
			w.Header().Set("X-Cluster-Peer", s.cfg.Peers.Self())
		}

		resp, shared, err := s.flight.do(r.Context(), key, func() (*response, error) {
			// The leader's solve must not die with the leader's client:
			// coalesced followers with live deadlines still want the
			// answer (and so does the cache). Detach onto the server
			// lifetime, bounded by the worst-case queue wait plus this
			// request's solve budget; the leader's own disconnect is
			// irrelevant past this point.
			ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.QueueWait+deadline)
			defer cancel()
			return s.solve(ctx, name, key, req, deadline)
		})
		if shared {
			source = "coalesced"
		}
		if err == nil && resp == nil {
			err = &httpError{http.StatusInternalServerError, "solve produced no result"}
		}
		if err != nil {
			fail(err)
			return
		}
		complete = resp.complete
		written = len(resp.body)
		s.writeResponse(w, resp, source)
	}
}

// AccessLogErr returns the access logger's sticky sink error, if any
// (for end-of-run reporting, the obs.Tracer.Err idiom).
func (s *Server) AccessLogErr() error { return s.accessLog.Err() }

// solve is the coalescing leader's path: admission, deadline, engines,
// rendering, store append, cache fill. callCtx is the detached per-solve
// context the handler built (server lifetime bounded by queue wait +
// budget), NOT the leader's client context — a leader disconnect must
// not poison the followers coalesced behind it, in the queue or
// mid-solve.
func (s *Server) solve(callCtx context.Context, name, key string, req queryRequest, deadline time.Duration) (*response, error) {
	release, err := s.admit(callCtx)
	if err != nil {
		return nil, err
	}
	defer release()

	if s.solveHook != nil {
		s.solveHook(key)
	}

	// The solve context parents on the server, not the leader's client:
	// coalesced followers (and the cache) still want the answer if the
	// leading client disconnects, and Shutdown cancels baseCtx so drain
	// turns every in-flight solve into a prompt best-so-far return.
	ctx, cancel := context.WithTimeout(s.baseCtx, deadline)
	defer cancel()

	metricSolves.Inc()
	resp, err := s.solveAndStore(ctx, name, key, req, deadline)
	if resp == nil {
		return nil, err
	}
	// A failed append is soft here: the answer is still served and
	// cached, and solved again once it falls out of the cache.
	if resp.complete {
		s.cache.put(key, resp)
	}
	return resp, nil
}

// solveAndStore is the one solve–render–append path, shared by live
// solves and the precompute batch: it runs req under ctx, whose deadline
// is the solve budget, renders the result, and appends a complete body
// to the store before returning it, so the answer outlives the process
// that computed it. A non-nil response with a non-nil error means the
// answer is good but the append failed.
func (s *Server) solveAndStore(ctx context.Context, name, key string, req queryRequest, deadline time.Duration) (*response, error) {
	begin := time.Now()
	m, err := req.Solve(ctx, s)
	if err != nil {
		return nil, err
	}
	complete := ctx.Err() == nil
	resp, err := s.render(m, name, key, deadline, complete, time.Since(begin))
	if err != nil {
		return nil, err
	}
	if complete && s.cfg.Store != nil {
		return resp, s.cfg.Store.Put(key, resp.body)
	}
	return resp, nil
}

// render turns a solved manifest into the response the handler writes,
// so a stored body and a freshly served one are the same bytes (modulo
// wall-clock telemetry).
func (s *Server) render(m *obs.Manifest, name, key string, deadline time.Duration, complete bool, elapsed time.Duration) (*response, error) {
	m.ElapsedMS = float64(elapsed) / float64(time.Millisecond)
	env := s.env
	m.Env = &env
	m.AddTable("serve", "butterflyd request record", []requestRow{{
		Endpoint:   name,
		Key:        key,
		Complete:   complete,
		DeadlineMS: float64(deadline) / float64(time.Millisecond),
	}})
	body, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	body = append(body, '\n')
	return &response{body: body, complete: complete}, nil
}

// storeGet looks key up in the persistent store. Errors (bit rot) are
// deliberately soft: the request falls through to a fresh solve, whose
// append supersedes the bad record, and store.read_errors records that
// it happened.
func (s *Server) storeGet(key string) (*response, bool) {
	if s.cfg.Store == nil {
		return nil, false
	}
	body, ok, err := s.cfg.Store.Get(key)
	if err != nil || !ok {
		return nil, false
	}
	return &response{body: body, complete: true}, true
}

// admit acquires a solve slot. A free slot is immediate; otherwise the
// request queues — bounded by MaxQueue (past it: 429) and by QueueWait
// (past it: 503). A draining server admits nothing new.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	if s.draining.Load() {
		metricRejected503.Inc()
		return nil, errDraining
	}
	release = func() { <-s.sem }
	select {
	case s.sem <- struct{}{}:
		return release, nil
	default:
	}
	if s.queued.Add(1) > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		metricRejected429.Inc()
		return nil, errQueueFull
	}
	defer s.queued.Add(-1)
	t := time.NewTimer(s.cfg.QueueWait)
	defer t.Stop()
	select {
	case s.sem <- struct{}{}:
		return release, nil
	case <-t.C:
		metricRejected503.Inc()
		return nil, errQueueWait
	case <-ctx.Done():
		return nil, &httpError{http.StatusServiceUnavailable, "client gave up while queued"}
	case <-s.baseCtx.Done():
		metricRejected503.Inc()
		return nil, errDraining
	}
}

// requestRow is the per-request metadata table every response carries:
// which endpoint answered, under which canonical key, whether the solve
// ran to completion (false: deadline or drain truncated it and the rows
// are best-so-far, marked non-exact where applicable), and the budget of
// the request that did the solving.
type requestRow struct {
	Endpoint   string  `json:"endpoint"`
	Key        string  `json:"key"`
	Complete   bool    `json:"complete"`
	DeadlineMS float64 `json:"deadline_ms"`
}

func (s *Server) writeResponse(w http.ResponseWriter, resp *response, source string) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("X-Cache", source)
	w.Header().Set("Content-Length", strconv.Itoa(len(resp.body)))
	_, _ = w.Write(resp.body)
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	metricErrors.Inc()
	status := errorStatus(err)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds(err)))
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// retryAfterSeconds derives the Retry-After hint from the admission
// configuration instead of a hard-coded 1s: a 429 means the queue is
// full, so a slot opens within about one queue-wait; a queue-wait 503
// means the server was saturated for a full QueueWait already, so back
// off twice that; a draining server is going away — the longer hint
// steers clients to a healthy peer instead of hammering the corpse.
func (s *Server) retryAfterSeconds(err error) int {
	wait := s.cfg.QueueWait
	secs := int(math.Ceil(wait.Seconds()))
	if secs < 1 {
		secs = 1
	}
	switch err {
	case errQueueFull:
		return secs
	case errQueueWait, errDraining:
		return 2 * secs
	}
	if s.draining.Load() {
		return 2 * secs
	}
	return secs
}

func errorStatus(err error) int {
	if he, ok := err.(*httpError); ok {
		return he.status
	}
	if err == context.Canceled || err == context.DeadlineExceeded {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}
