// Package server turns the vsfs library into analysis-as-a-service: a
// long-running HTTP/JSON daemon that accepts mini-C or textual-IR
// programs, solves them with the chosen analysis (vsfs, sfs, cfgfree,
// or andersen), and answers points-to, alias, call-graph, witness, and
// checker queries.
//
// Three pieces of plumbing make it a service rather than a CGI wrapper:
//
//   - Cancellation: request contexts (client disconnects, per-request
//     deadlines, the server-wide solve budget) flow through the facade
//     into the worklist loops of every solver, so abandoned work stops
//     burning CPU promptly.
//   - A content-addressed result cache: solved programs are cached
//     under the SHA-256 of (mode, language, source) with an LRU bound,
//     and single-flight deduplication ensures N concurrent identical
//     requests trigger exactly one solve.
//   - A bounded worker pool: at most Workers solves run at once, at
//     most QueueDepth wait, and anything beyond that is shed with 503
//     instead of accumulating goroutines. Close drains in-flight work.
//
// Endpoints: GET /healthz, GET /readyz, GET /stats, GET /runs,
// GET /metrics, POST /analyze, POST /query, POST /check, and (opt-in)
// GET /debug/pprof/*. All response bodies are deterministic — sorted
// keys and slices everywhere — so a cache hit is byte-identical to the
// cache miss that populated it; only the X-Vsfs-Cache header differs.
//
// Every request is tagged with a request ID (client-supplied
// X-Request-Id or generated), which is echoed in the response header,
// embedded in error bodies, and attached to every log line — including
// the solve-cancellation and queue-shed paths — so a client-visible
// failure can always be correlated with the server's logs.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"vsfs"
	"vsfs/internal/diag"
	"vsfs/internal/guard"
	"vsfs/internal/obs"
)

// Config sizes the service. Zero values select sensible defaults.
type Config struct {
	// Workers bounds concurrent solves; default GOMAXPROCS.
	Workers int
	// QueueDepth bounds solves waiting for a worker; default 64.
	// Submissions beyond it fail fast with 503.
	QueueDepth int
	// SolveTimeout caps one solve's wall clock; default 30s. Zero means
	// DefaultSolveTimeout; negative means no cap.
	SolveTimeout time.Duration
	// CacheEntries bounds the result cache; default 128.
	CacheEntries int
	// Logger receives structured access and error logs; default discards.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under GET /debug/pprof/.
	EnablePprof bool

	// StepBudget is a server-wide pool of worklist steps: each solve
	// runs under a budget of StepBudget/Workers steps. A solve that
	// exhausts it after the auxiliary phase degrades to the
	// flow-insensitive result; earlier breaches fail with 503. Zero
	// means unbounded.
	StepBudget int64
	// MemBudget is the server-wide pool of points-to storage bytes,
	// split across Workers like StepBudget. Zero means unbounded.
	MemBudget int64

	// Faults injects a deterministic guard.FaultPlan into every solve.
	// Test hook; leave nil in production.
	Faults *guard.FaultPlan

	// Ledger, when non-nil, records every completed solve (including
	// degraded ones) as a vsfs.RunRecord and serves the tail at
	// GET /runs. The server does not close it; the owner does.
	Ledger *obs.Ledger
	// TraceDir, when non-empty, writes one Chrome trace_event file per
	// solve into the directory, named and tagged with the request ID of
	// the single-flight leader.
	TraceDir string
	// Attribution enables per-object cost attribution on every solve:
	// reports embed the hot-object table and /metrics gains the
	// vsfs_attr_* series. Adds ~four slice writes per solver event.
	Attribution bool
}

// Defaults for Config's zero values.
const (
	DefaultQueueDepth   = 64
	DefaultCacheEntries = 128
	DefaultSolveTimeout = 30 * time.Second
)

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.SolveTimeout == 0 {
		c.SolveTimeout = DefaultSolveTimeout
	} else if c.SolveTimeout < 0 {
		c.SolveTimeout = 0
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = DefaultCacheEntries
	}
	if c.Logger == nil {
		c.Logger = obs.Discard()
	}
	return c
}

// Server is the analysis service. Create with New, mount via
// http.Handler, stop with Close.
type Server struct {
	cfg     Config
	cache   *resultCache
	flight  *flightGroup
	pool    *pool
	met     *serverMetrics
	logger  *slog.Logger
	started time.Time
	mux     *http.ServeMux

	// draining flips once Close begins: /readyz answers 503 from then
	// on so load balancers stop routing here while in-flight solves
	// finish. /healthz stays 200 — the process is alive, just leaving.
	draining atomic.Bool

	// Per-solve share of the server-wide budget pools.
	stepsPerSolve int64
	memPerSolve   int64
}

// New builds a Server with its worker pool already running.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   newResultCache(cfg.CacheEntries),
		flight:  newFlightGroup(cfg.SolveTimeout),
		logger:  cfg.Logger,
		started: time.Now(),
	}
	if cfg.StepBudget > 0 {
		s.stepsPerSolve = max(1, cfg.StepBudget/int64(cfg.Workers))
	}
	if cfg.MemBudget > 0 {
		s.memPerSolve = max(1, cfg.MemBudget/int64(cfg.Workers))
	}
	s.met = newServerMetrics(s)
	s.pool = newPool(cfg.Workers, cfg.QueueDepth, func(v any) {
		// Last-resort defense: solve jobs recover their own panics, so
		// this only fires for a bug in the job plumbing itself. The
		// worker survives either way.
		s.met.guardPanics.With("phase", "server").Inc()
		s.logger.Error("worker recovered from panic", "panic", fmt.Sprint(v))
	})
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /runs", s.handleRuns)
	s.mux.HandleFunc("POST /analyze", s.handleAnalyze)
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("POST /check", s.handleCheck)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("POST /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// ServeHTTP implements http.Handler. It is the telemetry middleware:
// it assigns (or adopts) the request ID, counts the request, runs the
// handler, and emits one structured access-log line.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	startedAt := time.Now()
	id := r.Header.Get("X-Request-Id")
	if id == "" {
		id = obs.NewRequestID()
	}
	w.Header().Set("X-Request-Id", id)
	r = r.WithContext(obs.WithRequestID(r.Context(), id))

	s.met.httpRequests.With("endpoint", endpointOf(r.URL.Path)).Inc()
	sw := &statusWriter{ResponseWriter: w}
	s.mux.ServeHTTP(sw, r)

	attrs := []slog.Attr{
		slog.String("id", id),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", sw.status),
		slog.Duration("duration", time.Since(startedAt)),
	}
	if cs := w.Header().Get("X-Vsfs-Cache"); cs != "" {
		attrs = append(attrs, slog.String("cache", cs))
	}
	s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
}

// Close stops accepting new solves and drains queued and in-flight
// work, returning ctx.Err() if draining outlives the context. From the
// first moment of Close, /readyz answers 503 so health-checked routers
// stop sending new work here.
func (s *Server) Close(ctx context.Context) error {
	s.draining.Store(true)
	return s.pool.shutdown(ctx)
}

// Draining reports whether Close has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Stats returns a point-in-time snapshot of the service counters.
func (s *Server) Stats() StatsSnapshot { return s.snapshot() }

// AnalyzeRequest is the body of POST /analyze (and is embedded in
// QueryRequest). TimeoutMs is a per-request deadline; it is not part of
// the cache key because it does not affect the solved result.
type AnalyzeRequest struct {
	Source    string `json:"source"`
	Lang      string `json:"lang,omitempty"` // "c" (default) or "ir"
	Mode      string `json:"mode,omitempty"` // "vsfs" (default), "sfs", "cfgfree", "andersen"
	TimeoutMs int    `json:"timeoutMs,omitempty"`
}

// AnalyzeResponse is the body of a successful POST /analyze.
type AnalyzeResponse struct {
	Key    string      `json:"key"`
	Mode   string      `json:"mode"`
	Report vsfs.Report `json:"report"`
	Dump   string      `json:"dump"`
}

// CheckRequest is the body of POST /check. The solve itself rides the
// same cache/single-flight/pool path as /analyze; the checkers
// and the diagnostics pipeline run per request on the solved facts.
type CheckRequest struct {
	AnalyzeRequest
	// Filename is the display name stamped into finding locations and
	// SARIF artifact URIs. Cosmetic only.
	Filename string `json:"filename,omitempty"`
	// Format selects the response body: "json" (default) or "sarif".
	Format string `json:"format,omitempty"`
	// Severities overrides per-kind severities (error|warning|note).
	Severities map[string]string `json:"severities,omitempty"`
	// Taint configuration; see vsfs.CheckConfig.
	TaintSource     string   `json:"taintSource,omitempty"`
	TaintSink       string   `json:"taintSink,omitempty"`
	TaintSanitizers []string `json:"taintSanitizers,omitempty"`
}

// CheckResponse is the body of a successful POST /check in "json"
// format.
type CheckResponse struct {
	Key        string         `json:"key"`
	Mode       string         `json:"mode"`
	Findings   []diag.Finding `json:"findings"`
	Suppressed int            `json:"suppressed,omitempty"`
}

// QueryRequest is the body of POST /query.
type QueryRequest struct {
	AnalyzeRequest
	Kind  string `json:"kind"` // points-to | alias | callgraph | explain | check
	Func  string `json:"func,omitempty"`
	Var   string `json:"var,omitempty"`
	Func2 string `json:"func2,omitempty"`
	Var2  string `json:"var2,omitempty"`
}

// CallEdge is one function's resolved callees.
type CallEdge struct {
	Func    string   `json:"func"`
	Callees []string `json:"callees"`
}

// QueryResponse is the body of a successful POST /query. Exactly one
// result field is populated, matching Kind.
type QueryResponse struct {
	Key       string         `json:"key"`
	Kind      string         `json:"kind"`
	PointsTo  []string       `json:"pointsTo,omitempty"`
	Alias     *bool          `json:"alias,omitempty"`
	CallGraph []CallEdge     `json:"callGraph,omitempty"`
	Witnesses []string       `json:"witnesses,omitempty"`
	Findings  []vsfs.Finding `json:"findings,omitempty"`
}

// errBadRequest marks client errors that should map to 400/422 rather
// than 500.
type errBadRequest struct{ error }

func badRequestf(format string, args ...any) error {
	return errBadRequest{fmt.Errorf(format, args...)}
}

// resolve returns the solved result for req, via cache, single-flight,
// and the worker pool in that order.
func (s *Server) resolve(ctx context.Context, req AnalyzeRequest) (res *vsfs.Result, key string, hit bool, err error) {
	mode, err := vsfs.ParseMode(req.Mode)
	if err != nil {
		return nil, "", false, errBadRequest{err}
	}
	input, err := vsfs.ParseInput(req.Lang)
	if err != nil {
		return nil, "", false, errBadRequest{err}
	}
	if strings.TrimSpace(req.Source) == "" {
		return nil, "", false, badRequestf("empty source")
	}
	s.met.requestsByMode.With("mode", mode.String()).Inc()
	key = cacheKey(mode, input, req.Source)
	if r, ok := s.cache.get(key); ok {
		s.met.cacheReqs.With("result", "hit").Inc()
		return r, key, true, nil
	}
	s.met.cacheReqs.With("result", "miss").Inc()

	if req.TimeoutMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMs)*time.Millisecond)
		defer cancel()
	}
	// The single-flight solve runs on a context detached from this
	// request (other waiters may outlive it), so the leader's request ID
	// must be carried over explicitly for the solve's log lines.
	reqID := obs.RequestID(ctx)
	r, shared, err := s.flight.do(ctx, key, func(solveCtx context.Context) (*vsfs.Result, error) {
		// An earlier flight for key may have cached its result and
		// finished since the lookup above; serve that, never solve twice.
		if r, ok := s.cache.get(key); ok {
			return r, nil
		}
		return s.solveOn(obs.WithRequestID(solveCtx, reqID), key, mode, input, req.Source)
	})
	if shared {
		s.met.flightShared.Inc()
	}
	return r, key, false, err
}

// solveOn runs one solve on the worker pool under solveCtx and caches a
// successful result. It is only ever called as a single-flight leader,
// so each distinct in-flight program occupies at most one queue slot.
func (s *Server) solveOn(solveCtx context.Context, key string, mode vsfs.Mode, input vsfs.Input, source string) (*vsfs.Result, error) {
	type outcome struct {
		res *vsfs.Result
		err error
	}
	ch := make(chan outcome, 1)
	reqID := obs.RequestID(solveCtx)
	job := func() {
		var tr *obs.Trace
		// reply writes the solve's trace, if any, before handing over the
		// outcome, so a caller that has the result can read the trace.
		reply := func(o outcome) {
			if tr != nil {
				s.writeTrace(tr, reqID)
			}
			ch <- o
		}
		done := false
		defer func() {
			// Defense in depth: the facade isolates phase panics itself,
			// so this recover only fires for a panic outside any phase.
			// The waiters still get an answer and the worker survives.
			if v := recover(); v != nil && !done {
				err := &guard.PhaseError{Phase: "server", Value: v}
				s.met.solveOutcomes.With("outcome", "error").Inc()
				s.met.guardPanics.With("phase", "server").Inc()
				s.logger.Error("solve panicked outside pipeline", "id", reqID, "key", key, "panic", fmt.Sprint(v))
				reply(outcome{nil, err})
			}
		}()
		// A solve abandoned by every waiter while still queued: skip it.
		if err := solveCtx.Err(); err != nil {
			s.met.solveOutcomes.With("outcome", "cancelled").Inc()
			s.logger.Warn("solve abandoned in queue", "id", reqID, "key", key, "err", err)
			done = true
			reply(outcome{nil, err})
			return
		}
		s.met.solvesStarted.Inc()
		ctx := guard.WithBudget(solveCtx, guard.NewBudget(s.stepsPerSolve, s.memPerSolve, 0))
		if s.cfg.Faults != nil {
			ctx = guard.WithFaults(ctx, s.cfg.Faults)
		}
		if s.cfg.TraceDir != "" {
			tr = obs.NewTrace()
			tr.Tag("requestId", reqID)
			ctx = obs.NewContext(ctx, tr)
		}
		res, err := vsfs.AnalyzeContext(ctx, source, vsfs.Options{Mode: mode, Input: input, Attr: s.cfg.Attribution})
		switch {
		case err == nil:
			s.met.solveOutcomes.With("outcome", "ok").Inc()
			s.met.observeSolve(res)
			if res.Degraded() {
				phase, resource := res.DegradedCause()
				s.met.degradedResults.Inc()
				s.met.budgetExceeded.With("phase", phase, "resource", resource).Inc()
				s.logger.Warn("solve degraded", "id", reqID, "key", key, "reason", res.Degradation())
			}
			// Only complete solves are cached — including degraded ones,
			// which are deterministic for a fixed server budget, so a
			// repeat of an over-budget program is a cache hit rather than
			// another doomed solve. A cancelled or failed solve can never
			// corrupt an entry.
			s.cache.add(key, res)
			if s.cfg.Ledger != nil {
				// Each ledger record covers one actual solve (cache hits
				// re-serve this record's run). The checker pass is paid
				// only when a ledger wants the finding count.
				rec := res.RunRecord(time.Now(), len(res.Check()))
				if lerr := s.cfg.Ledger.Append(rec); lerr != nil {
					s.logger.Warn("ledger append failed", "id", reqID, "err", lerr)
				}
			}
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			s.met.solveOutcomes.With("outcome", "cancelled").Inc()
			s.logger.Warn("solve cancelled", "id", reqID, "key", key, "err", err)
		default:
			s.met.solveOutcomes.With("outcome", "error").Inc()
			var pe *guard.PhaseError
			var be *guard.ErrBudgetExceeded
			switch {
			case errors.As(err, &pe):
				s.met.guardPanics.With("phase", pe.Phase).Inc()
				s.logger.Error("solve panicked", "id", reqID, "key", key,
					"phase", pe.Phase, "program", pe.ProgramHash, "panic", fmt.Sprint(pe.Value))
			case errors.As(err, &be):
				// A breach before the auxiliary result exists has no fallback.
				s.met.budgetExceeded.With("phase", be.Phase, "resource", string(be.Resource)).Inc()
				s.logger.Warn("solve over budget, no fallback", "id", reqID, "key", key, "err", err)
			}
		}
		done = true
		reply(outcome{res, err})
	}
	if err := s.pool.submit(job); err != nil {
		if errors.Is(err, ErrQueueFull) {
			s.met.shedRequests.Inc()
			s.logger.Warn("solve shed, queue full", "id", reqID, "key", key)
		}
		return nil, err
	}
	select {
	case o := <-ch:
		return o.res, o.err
	case <-solveCtx.Done():
		return nil, solveCtx.Err()
	}
}

// writeTrace persists one solve's Chrome trace under TraceDir, named by
// the request ID (sanitised — the ID may be client-supplied). Failures
// are logged, never surfaced: tracing must not affect the solve.
func (s *Server) writeTrace(tr *obs.Trace, reqID string) {
	name := "solve-" + sanitizeID(reqID) + ".json"
	f, err := os.Create(filepath.Join(s.cfg.TraceDir, name))
	if err != nil {
		s.logger.Warn("trace create failed", "id", reqID, "err", err)
		return
	}
	defer f.Close()
	if err := tr.WriteJSON(f); err != nil {
		s.logger.Warn("trace write failed", "id", reqID, "err", err)
	}
}

// sanitizeID keeps [A-Za-z0-9_-] of a request ID for use in filenames.
func sanitizeID(id string) string {
	out := make([]byte, 0, len(id))
	for i := 0; i < len(id) && len(out) < 64; i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "unknown"
	}
	return string(out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{
		"status":  "ok",
		"version": obs.Version,
		"go":      obs.GoVersion(),
	})
}

// handleReadyz is the routing probe: 200 while the server accepts new
// solves, 503 with Retry-After once Close has begun. Liveness
// (/healthz) deliberately stays 200 through a drain — the process is
// healthy, it is just not taking new work.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", retryAfterShed)
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"status":  "draining",
			"version": obs.Version,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{
		"status":  "ready",
		"version": obs.Version,
	})
}

// RunsResponse is the body of GET /runs: the newest ledger records,
// oldest first, as raw JSON lines.
type RunsResponse struct {
	Runs []json.RawMessage `json:"runs"`
}

// Bounds for GET /runs?n=K: K is clamped into [1, MaxRunsTail] rather
// than rejected, so dashboards asking for "everything" (huge K) or
// miscomputing zero get the documented edge value instead of a 400;
// only non-numeric input is a client error.
const (
	DefaultRunsTail = 20
	MaxRunsTail     = 500
)

// handleRuns tails the persistent run ledger. 404 when the server was
// started without one.
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Ledger == nil {
		s.writeError(w, r, http.StatusNotFound, errors.New("no run ledger configured (start with -ledger)"))
		return
	}
	n := DefaultRunsTail
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil {
			s.writeError(w, r, http.StatusBadRequest, badRequestf("bad n %q (want an integer)", q))
			return
		}
		n = min(max(v, 1), MaxRunsTail)
	}
	runs, err := s.cfg.Ledger.Tail(n)
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	if runs == nil {
		runs = []json.RawMessage{}
	}
	writeJSON(w, http.StatusOK, RunsResponse{Runs: runs})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.snapshot())
}

// handleMetrics renders the registry in Prometheus text format 0.0.4.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.reg.WritePrometheus(w)
}

// maxBodyBytes caps a request body. The largest benchmark program is a
// few hundred KB of IR text; without a cap, a hostile body is decoded
// and parsed in full before the server can reject it.
const maxBodyBytes = 32 << 20

// decodeBody decodes r's JSON body into v. It answers 413 for a body
// over maxBodyBytes and 400 for malformed JSON, and reports whether the
// handler should go on.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		s.writeError(w, r, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", maxBodyBytes))
		return false
	}
	s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("invalid JSON body: %w", err))
	return false
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	res, key, hit, err := s.resolve(r.Context(), req)
	if err != nil {
		setRetryHeaders(w, err)
		s.writeError(w, r, statusFor(err), err)
		return
	}
	setResultHeaders(w, key, hit, res)
	// The first /analyze request on an entry renders its body, outside
	// the cache lock; every later one writes the stored bytes.
	body := s.cache.body(key, res)
	if body == nil {
		body, err = analyzeBody(key, res.Report())
		if err == nil {
			s.cache.setBody(key, res, body)
		}
	}
	writeBody(w, http.StatusOK, body, err)
}

// handleCheck solves the program (cached), runs the full checker suite
// over the solved facts, pushes the findings through the diagnostics
// engine (severities, fingerprints, inline suppressions), counts them
// into vsfs_findings_total by kind, and renders JSON or SARIF 2.1.0.
func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	var req CheckRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	format := strings.ToLower(req.Format)
	if format != "" && format != "json" && format != "sarif" {
		s.writeError(w, r, http.StatusBadRequest, badRequestf("unknown format %q (want json or sarif)", req.Format))
		return
	}
	severities := make(map[string]diag.Severity, len(req.Severities))
	for kind, lvl := range req.Severities {
		switch sv := diag.Severity(lvl); sv {
		case diag.Error, diag.Warning, diag.Note:
			severities[kind] = sv
		default:
			s.writeError(w, r, http.StatusBadRequest, badRequestf("bad severity %q for %q (want error, warning or note)", lvl, kind))
			return
		}
	}
	res, key, hit, err := s.resolve(r.Context(), req.AnalyzeRequest)
	if err != nil {
		setRetryHeaders(w, err)
		s.writeError(w, r, statusFor(err), err)
		return
	}
	raw := res.CheckWith(vsfs.CheckConfig{
		TaintSource:     req.TaintSource,
		TaintSink:       req.TaintSink,
		TaintSanitizers: req.TaintSanitizers,
	})
	rawd := make([]diag.Raw, len(raw))
	for i, f := range raw {
		rawd[i] = diag.Raw{Kind: f.Kind, Func: f.Func, Label: f.Label, Line: f.Line, Col: f.Col, Message: f.Message}
	}
	findings := diag.New(req.Filename, rawd, severities)
	findings, suppressed := diag.Suppress(req.Source, findings)
	for _, f := range findings {
		s.met.findingsTotal.With("kind", f.Kind).Inc()
	}
	setResultHeaders(w, key, hit, res)
	if format == "sarif" {
		w.Header().Set("Content-Type", "application/sarif+json")
		w.WriteHeader(http.StatusOK)
		if err := diag.WriteSARIF(w, findings); err != nil {
			s.logger.Warn("sarif encoding failed", "id", obs.RequestID(r.Context()), "err", err)
		}
		return
	}
	if findings == nil {
		findings = []diag.Finding{}
	}
	writeJSON(w, http.StatusOK, CheckResponse{
		Key:        key,
		Mode:       res.Stats().Mode,
		Findings:   findings,
		Suppressed: suppressed,
	})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	res, key, hit, err := s.resolve(r.Context(), req.AnalyzeRequest)
	if err != nil {
		setRetryHeaders(w, err)
		s.writeError(w, r, statusFor(err), err)
		return
	}
	resp := QueryResponse{Key: key, Kind: req.Kind}
	switch strings.ToLower(req.Kind) {
	case "points-to", "pointsto", "pts":
		if req.Var == "" {
			s.writeError(w, r, http.StatusBadRequest, badRequestf(`"points-to" needs "var" (and optionally "func")`))
			return
		}
		resp.PointsTo = res.PointsToVar(req.Func, req.Var)
		if resp.PointsTo == nil {
			resp.PointsTo = []string{}
		}
	case "alias":
		if req.Var == "" || req.Var2 == "" {
			s.writeError(w, r, http.StatusBadRequest, badRequestf(`"alias" needs "var" and "var2" (and optionally "func"/"func2")`))
			return
		}
		alias := res.MayAlias(req.Func, req.Var, req.Func2, req.Var2)
		resp.Alias = &alias
	case "callgraph", "call-graph":
		cg := res.CallGraph()
		edges := make([]CallEdge, 0, len(cg))
		for _, fn := range res.Functions() {
			callees := cg[fn]
			if callees == nil {
				callees = []string{}
			}
			edges = append(edges, CallEdge{Func: fn, Callees: callees})
		}
		resp.CallGraph = edges
	case "explain", "why":
		if req.Var == "" {
			s.writeError(w, r, http.StatusBadRequest, badRequestf(`"explain" needs "var" (and optionally "func")`))
			return
		}
		resp.Witnesses = res.Explain(req.Func, req.Var)
		if resp.Witnesses == nil {
			resp.Witnesses = []string{}
		}
	case "check":
		resp.Findings = res.Check()
		if resp.Findings == nil {
			resp.Findings = []vsfs.Finding{}
		}
	default:
		s.writeError(w, r, http.StatusBadRequest,
			badRequestf("unknown query kind %q (want points-to, alias, callgraph, explain, or check)", req.Kind))
		return
	}
	setResultHeaders(w, key, hit, res)
	writeJSON(w, http.StatusOK, resp)
}

// setResultHeaders reports cache and degradation status out of band:
// the body must stay byte-identical between a miss and the hits it
// feeds, so anything that may vary or merely annotate rides in headers.
func setResultHeaders(w http.ResponseWriter, key string, hit bool, res *vsfs.Result) {
	status := "miss"
	if hit {
		status = "hit"
	}
	w.Header().Set("X-Vsfs-Cache", status)
	w.Header().Set("X-Vsfs-Key", key)
	if res.Degraded() {
		w.Header().Set("X-Vsfs-Degraded", "true")
	}
}

// Retry-After values, in seconds: a shed, shutting-down or draining
// request may retry almost at once; a budget breach with no fallback
// after backing off. Both are constants, so the answer to a request
// never depends on what other requests were answered before it.
const (
	retryAfterShed   = "1"
	retryAfterBudget = "5"
)

// setRetryHeaders attaches Retry-After to retryable failures.
func setRetryHeaders(w http.ResponseWriter, err error) {
	var be *guard.ErrBudgetExceeded
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrShutdown):
		w.Header().Set("Retry-After", retryAfterShed)
	case errors.As(err, &be):
		w.Header().Set("Retry-After", retryAfterBudget)
	}
}

// statusFor maps resolve errors to HTTP statuses: queue pressure,
// shutdown, and non-degradable budget breaches are 503
// (retryable), cancellation/deadline is 504, a pipeline panic is 500,
// malformed requests are 400, and programs that fail to compile are 422.
func statusFor(err error) int {
	var pe *guard.PhaseError
	var be *guard.ErrBudgetExceeded
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrShutdown):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.As(err, &pe):
		return http.StatusInternalServerError
	case errors.As(err, &be):
		return http.StatusServiceUnavailable
	default:
		var bad errBadRequest
		if errors.As(err, &bad) {
			return http.StatusBadRequest
		}
		return http.StatusUnprocessableEntity
	}
}

type errorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"requestId,omitempty"`
}

// writeError renders a failure with the request ID embedded in the
// body, so a shed (503) or cancelled (504) request can be matched to
// the server's log line for the same ID.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	id := obs.RequestID(r.Context())
	if status >= 500 {
		s.logger.Warn("request failed", "id", id, "status", status, "err", err)
	}
	writeJSON(w, status, errorResponse{Error: err.Error(), RequestID: id})
}

// writeJSON renders v canonically: encoding/json marshals struct fields
// in declaration order and map keys sorted, and every slice we emit is
// pre-sorted, so identical values produce identical bytes.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := marshalBody(v)
	writeBody(w, status, body, err)
}

// marshalBody renders v as a response body: indented JSON and a
// trailing newline, at its exact length, so a body the cache keeps
// retains no spare capacity.
func marshalBody(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	body := make([]byte, len(data)+1)
	copy(body, data)
	body[len(data)] = '\n'
	return body, nil
}

// analyzeBody renders the /analyze body of a result with key and
// report rep: marshalBody(AnalyzeResponse{key, rep.Mode, rep,
// rep.Dump()}), byte for byte, with the report written by its own
// writer one level in and the dump rendered from the report's facts.
func analyzeBody(key string, rep vsfs.Report) ([]byte, error) {
	// Strings always marshal.
	k, _ := json.Marshal(key)
	m, _ := json.Marshal(rep.Mode)
	d, _ := json.Marshal(rep.Dump())
	b := append([]byte("{\n  \"key\": "), k...)
	b = append(b, ",\n  \"mode\": "...)
	b = append(b, m...)
	b = append(b, ",\n  \"report\": "...)
	b, err := rep.AppendIndent(b, "  ")
	if err != nil {
		return nil, err
	}
	b = append(b, ",\n  \"dump\": "...)
	b = append(b, d...)
	b = append(b, "\n}\n"...)
	// Held at its exact length, as marshalBody holds a body.
	body := make([]byte, len(b))
	copy(body, b)
	return body, nil
}

// writeBody writes a rendered JSON body, or a 500 if rendering failed.
func writeBody(w http.ResponseWriter, status int, body []byte, err error) {
	if err != nil {
		http.Error(w, `{"error":"encoding failure"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}
