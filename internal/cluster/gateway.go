package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vsfs/internal/obs"
)

// Config sizes the gateway. Zero values select sensible defaults.
type Config struct {
	// Replicas are the vsfs-serve base URLs (e.g. http://10.0.0.1:8080)
	// forming the ring. Required, at least one.
	Replicas []string

	// VirtualNodes per replica on the ring; default DefaultVirtualNodes.
	VirtualNodes int
	// LoadFactor is the bounded-load constant c (> 1); default
	// DefaultLoadFactor.
	LoadFactor float64

	// MaxAttempts is the per-request retry budget: the total number of
	// upstream attempts (the first try, every retry, and every hedge)
	// one client request may spend. Default 4.
	MaxAttempts int
	// RetryBase/RetryCap bound the exponential backoff between retry
	// rounds; defaults DefaultRetryBase / DefaultRetryCap.
	RetryBase time.Duration
	RetryCap  time.Duration
	// RetrySeed seeds the backoff jitter; 0 draws a random seed.
	RetrySeed int64
	// AttemptTimeout caps one upstream attempt's wall clock; default
	// 30s. The client's own deadline still propagates and wins when
	// shorter.
	AttemptTimeout time.Duration

	// HedgeAfter controls tail-latency hedging: after this long without
	// an answer, a second attempt is launched at the next ring replica
	// and the first success wins. 0 adapts the threshold to the
	// HedgeQuantile of recent upstream latencies; negative disables
	// hedging.
	HedgeAfter time.Duration
	// HedgeQuantile is the latency quantile used when HedgeAfter is 0;
	// default 0.95.
	HedgeQuantile float64
	// HedgeMin floors the adaptive threshold; default 25ms.
	HedgeMin time.Duration

	// ProbeInterval/ProbeTimeout drive the /readyz health checker;
	// defaults 1s / 2s.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// EjectAfter consecutive failed probes eject a replica from the
	// ring; ReadmitAfter consecutive successes readmit it. Defaults 3/2.
	EjectAfter   int
	ReadmitAfter int

	// MaxBodyBytes caps a proxied request body; default 32 MiB.
	MaxBodyBytes int64

	// Transport overrides the upstream http.RoundTripper (tests inject
	// chaos here); default is a dedicated transport with sane timeouts.
	Transport http.RoundTripper
	// Logger receives structured logs; default discards.
	Logger *slog.Logger
	// DisableMetrics leaves GET /metrics unmounted.
	DisableMetrics bool
}

// Defaults for Config's zero values.
const (
	DefaultMaxAttempts    = 4
	DefaultAttemptTimeout = 30 * time.Second
	DefaultHedgeQuantile  = 0.95
	DefaultHedgeMin       = 25 * time.Millisecond
	DefaultMaxBodyBytes   = 32 << 20

	// defaultHedgeCold is the hedging threshold used before the latency
	// window has enough samples to trust a quantile.
	defaultHedgeCold = 250 * time.Millisecond
	// hedgeWarmupSamples is how many latency samples the adaptive
	// threshold needs before it switches from defaultHedgeCold.
	hedgeWarmupSamples = 16
)

func (c Config) withDefaults() Config {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = DefaultMaxAttempts
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = DefaultAttemptTimeout
	}
	if c.HedgeQuantile <= 0 || c.HedgeQuantile >= 1 {
		c.HedgeQuantile = DefaultHedgeQuantile
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = DefaultHedgeMin
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.Logger == nil {
		c.Logger = obs.Discard()
	}
	if c.Transport == nil {
		c.Transport = &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}
	}
	return c
}

// Gateway routes POST /analyze, /query, and /check across a fleet of
// vsfs-serve replicas: consistent-hash placement on the content hash,
// bounded load, health-checked failover, retries with backoff + jitter
// under a per-request budget, and tail-latency hedging. Create with
// New, mount as an http.Handler, stop with Close.
type Gateway struct {
	cfg     Config
	ring    *Ring
	hc      *healthChecker
	met     *gatewayMetrics
	backoff *Backoff
	client  *http.Client
	logger  *slog.Logger
	started time.Time
	mux     *http.ServeMux

	// hedgeWindow aggregates successful upstream latencies fleet-wide
	// for the adaptive hedging threshold; latencies holds the
	// per-replica windows /stats reports.
	hedgeWindow *latencyWindow
	latMu       sync.Mutex
	latencies   map[string]*latencyWindow

	inflight sync.WaitGroup
	draining atomic.Bool
}

// New builds a Gateway and starts its health checker.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	ring, err := NewRing(cfg.Replicas, cfg.VirtualNodes, cfg.LoadFactor)
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		cfg:         cfg,
		ring:        ring,
		backoff:     NewBackoff(cfg.RetryBase, cfg.RetryCap, cfg.RetrySeed),
		client:      &http.Client{Transport: cfg.Transport},
		logger:      cfg.Logger,
		started:     time.Now(),
		hedgeWindow: newLatencyWindow(),
		latencies:   make(map[string]*latencyWindow, len(cfg.Replicas)),
	}
	for _, rep := range cfg.Replicas {
		g.latencies[rep] = newLatencyWindow()
	}
	g.met = newGatewayMetrics(g, ring.Members())
	g.hc = newHealthChecker(ring, cfg.ProbeInterval, cfg.ProbeTimeout, cfg.EjectAfter, cfg.ReadmitAfter,
		cfg.Transport, func(name string, healthy bool) {
			if healthy {
				g.met.readmissions.With("replica", name).Inc()
				g.met.replicaHealthy.With("replica", name).Set(1)
				g.logger.Info("replica readmitted", "replica", name)
			} else {
				g.met.ejections.With("replica", name).Inc()
				g.met.replicaHealthy.With("replica", name).Set(0)
				g.logger.Warn("replica ejected", "replica", name)
			}
		})

	g.mux = http.NewServeMux()
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /readyz", g.handleReadyz)
	g.mux.HandleFunc("GET /stats", g.handleStats)
	if !cfg.DisableMetrics {
		g.mux.HandleFunc("GET /metrics", g.handleMetrics)
	}
	for _, path := range []string{"/analyze", "/query", "/check"} {
		g.mux.HandleFunc("POST "+path, g.handleProxy)
	}
	g.hc.start()
	return g, nil
}

// Close drains the gateway like the replica tier: /readyz flips to 503
// immediately, the health checker stops, and in-flight proxied requests
// are waited out (ctx bounds the wait).
func (g *Gateway) Close(ctx context.Context) error {
	g.draining.Store(true)
	g.hc.close()
	done := make(chan struct{})
	go func() {
		g.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stats returns a point-in-time snapshot of the gateway counters.
func (g *Gateway) Stats() StatsSnapshot { return g.snapshot() }

// Ring exposes the routing ring (tests and the fleet harness read it).
func (g *Gateway) Ring() *Ring { return g.ring }

// ServeHTTP implements http.Handler: request-ID middleware around the
// mux, mirroring the replica tier.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	startedAt := time.Now()
	id := r.Header.Get("X-Request-Id")
	if id == "" {
		id = obs.NewRequestID()
	}
	w.Header().Set("X-Request-Id", id)
	r = r.WithContext(obs.WithRequestID(r.Context(), id))
	g.met.httpRequests.With("endpoint", gatewayEndpointOf(r.URL.Path)).Inc()
	sw := &statusWriter{ResponseWriter: w}
	g.mux.ServeHTTP(sw, r)
	g.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
		slog.String("id", id),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", sw.status),
		slog.Duration("duration", time.Since(startedAt)))
}

func gatewayEndpointOf(path string) string {
	switch path {
	case "/analyze", "/query", "/check":
		return path[1:]
	case "/healthz":
		return "healthz"
	case "/readyz":
		return "readyz"
	case "/stats":
		return "stats"
	case "/metrics":
		return "metrics"
	default:
		return "other"
	}
}

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

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{
		"status":  "ok",
		"version": obs.Version,
		"go":      obs.GoVersion(),
	})
}

func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if g.draining.Load() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, g.snapshot())
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	g.met.reg.WritePrometheus(w)
}

// routeRequest is the slice of the replica request schema the gateway
// needs for placement: the fields of the replica's cache key.
type routeRequest struct {
	Source string `json:"source"`
	Lang   string `json:"lang"`
	Mode   string `json:"mode"`
}

// handleProxy is the routed path: read the body, place it on the ring
// by content hash, and forward with retries, failover, and hedging.
func (g *Gateway) handleProxy(w http.ResponseWriter, r *http.Request) {
	if g.draining.Load() {
		w.Header().Set("Retry-After", "1")
		writeJSONError(w, http.StatusServiceUnavailable, "gateway draining", obs.RequestID(r.Context()))
		return
	}
	g.inflight.Add(1)
	defer g.inflight.Done()

	body, err := io.ReadAll(io.LimitReader(r.Body, g.cfg.MaxBodyBytes+1))
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, "reading request body: "+err.Error(), obs.RequestID(r.Context()))
		return
	}
	if int64(len(body)) > g.cfg.MaxBodyBytes {
		writeJSONError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", g.cfg.MaxBodyBytes), obs.RequestID(r.Context()))
		return
	}
	var rr routeRequest
	var key string
	if err := json.Unmarshal(body, &rr); err == nil && rr.Source != "" {
		key = RouteKey(rr.Mode, rr.Lang, rr.Source)
	} else {
		key = RouteKey("", "", string(body))
	}

	up, err := g.forward(r.Context(), r.URL.Path, r.Header.Get("Content-Type"), body, key)
	if err != nil {
		id := obs.RequestID(r.Context())
		status := http.StatusBadGateway
		switch {
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			status = http.StatusGatewayTimeout
		case errors.Is(err, errNoReplica):
			status = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", "1")
		}
		g.logger.Warn("proxy failed", "id", id, "path", r.URL.Path, "err", err)
		writeJSONError(w, status, err.Error(), id)
		return
	}
	relay(w, up)
}

// errNoReplica is returned when the ring yields no candidate at all.
var errNoReplica = errors.New("cluster: no replica available")

// upstream is one fully-buffered upstream response. Buffering decouples
// the client connection from the replica connection: a mid-body reset
// upstream becomes a retryable attempt failure instead of a corrupted
// client response.
type upstream struct {
	status  int
	header  http.Header
	body    []byte
	replica string
	// attempts is the total number of upstream attempts this answer
	// cost, echoed to the client in X-Vsfs-Gateway-Attempts.
	attempts int
}

// relay writes an upstream response to the client, byte-identical body,
// with the gateway's routing annotations riding in headers — the same
// out-of-band rule the replica's cache status follows.
func relay(w http.ResponseWriter, up *upstream) {
	for _, k := range []string{"Content-Type", "X-Vsfs-Cache", "X-Vsfs-Key", "X-Vsfs-Degraded", "X-Vsfs-Breaker", "Retry-After"} {
		if v := up.header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.Header().Set("X-Vsfs-Replica", up.replica)
	w.Header().Set("X-Vsfs-Gateway-Attempts", strconv.Itoa(up.attempts))
	w.WriteHeader(up.status)
	w.Write(up.body)
}

// attemptResult is one upstream attempt's outcome.
type attemptResult struct {
	up     *upstream
	err    error
	reason string // retry reason when the attempt is written off
	hedged bool
}

// forward sends one proxied request to the fleet and returns the first
// final answer. The loop structure: each round races a primary attempt
// (plus, after the hedging threshold, one hedge at the next ring
// replica); a round that ends with only retryable outcomes backs off —
// honoring the upstream's Retry-After under jitter — and fails over to
// the next candidate. The per-request attempt budget (MaxAttempts)
// bounds the total work one client request can cause fleet-wide.
func (g *Gateway) forward(ctx context.Context, path, contentType string, body []byte, key string) (*upstream, error) {
	candidates := g.ring.Pick(key)
	if len(candidates) == 0 {
		g.met.noReplica.Inc()
		return nil, errNoReplica
	}
	budget := g.cfg.MaxAttempts
	attempts := 0
	next := 0 // rotating cursor into candidates
	var lastUp *upstream
	var lastErr error

	for round := 0; budget > 0; round++ {
		primary := candidates[next%len(candidates)]
		next++
		budget--
		hedge := ""
		if budget > 0 && len(candidates) > 1 {
			hedge = candidates[next%len(candidates)]
		}
		res := g.race(ctx, primary, hedge, &budget, path, contentType, body)
		attempts += res.attempts
		if res.final != nil {
			res.final.attempts = attempts
			return res.final, nil
		}
		lastUp, lastErr = res.lastUp, res.lastErr
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if budget <= 0 {
			break
		}
		// Back off before the next round, honoring Retry-After; bail if
		// the client's deadline would expire first.
		var retryAfter time.Duration
		if lastUp != nil {
			retryAfter = retryAfterOf(&http.Response{Header: lastUp.header})
		}
		delay := g.backoff.Delay(round, retryAfter)
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= delay {
			break
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	// Budget exhausted: surface the last upstream rejection verbatim
	// (it carries the most truthful status and Retry-After), or the
	// transport error when no replica ever answered.
	if lastUp != nil {
		lastUp.attempts = attempts
		return lastUp, nil
	}
	if lastErr != nil {
		return nil, fmt.Errorf("cluster: all %d attempts failed: %w", attempts, lastErr)
	}
	return nil, errNoReplica
}

// raceResult summarises one round of race.
type raceResult struct {
	final    *upstream // non-retryable answer, or nil
	lastUp   *upstream // last retryable upstream response
	lastErr  error     // last transport error
	attempts int
}

// race runs one primary attempt and, if the hedging threshold passes
// first, one hedge at the next ring replica. The first final
// (non-retryable) answer wins and the loser is cancelled; retryable
// outcomes wait for the other leg before giving up on the round.
func (g *Gateway) race(ctx context.Context, primary, hedge string, budget *int, path, contentType string, body []byte) raceResult {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan attemptResult, 2)
	launch := func(replica string, hedged bool) {
		go func() {
			r := g.attempt(actx, replica, path, contentType, body)
			r.hedged = hedged
			ch <- r
		}()
	}
	launch(primary, false)
	out := raceResult{attempts: 1}
	outstanding := 1
	hedgeLaunched := false

	var hedgeC <-chan time.Time
	if hedge != "" && g.cfg.HedgeAfter >= 0 {
		t := time.NewTimer(g.hedgeDelay())
		defer t.Stop()
		hedgeC = t.C
	}

	for outstanding > 0 {
		select {
		case r := <-ch:
			outstanding--
			if r.err == nil && !retryableStatus(r.up.status) {
				if hedgeLaunched {
					if r.hedged {
						g.met.hedges.With("outcome", "won").Inc()
					} else {
						g.met.hedges.With("outcome", "lost").Inc()
					}
				}
				out.final = r.up
				return out
			}
			// Written off: count the retry reason, remember the outcome.
			g.met.retries.With("reason", r.reason).Inc()
			if r.err != nil {
				out.lastErr = r.err
			} else {
				out.lastUp = r.up
			}
		case <-hedgeC:
			hedgeC = nil
			if *budget > 0 {
				*budget--
				out.attempts++
				outstanding++
				hedgeLaunched = true
				launch(hedge, true)
			}
		case <-ctx.Done():
			out.lastErr = ctx.Err()
			return out
		}
	}
	return out
}

// hedgeDelay is the current hedging threshold: fixed when configured,
// otherwise the configured quantile of recent fleet-wide latencies
// (with a floor), or a conservative constant until the window warms up.
func (g *Gateway) hedgeDelay() time.Duration {
	if g.cfg.HedgeAfter > 0 {
		return g.cfg.HedgeAfter
	}
	if g.hedgeWindow.count() < hedgeWarmupSamples {
		return defaultHedgeCold
	}
	q, ok := g.hedgeWindow.quantile(g.cfg.HedgeQuantile)
	if !ok || q < g.cfg.HedgeMin {
		return g.cfg.HedgeMin
	}
	return q
}

// retryableStatus reports whether an upstream status is worth another
// replica: any 5xx (shed, breaker, panic, timeout, bad gateway). 4xx
// means the request itself is at fault and every replica will agree.
func retryableStatus(status int) bool { return status >= 500 }

// attempt sends one upstream request and buffers the full response.
func (g *Gateway) attempt(ctx context.Context, replica, path, contentType string, body []byte) attemptResult {
	g.ring.Acquire(replica)
	defer g.ring.Release(replica)
	g.met.upstreamRequests.With("replica", replica).Inc()

	actx, cancel := context.WithTimeout(ctx, g.cfg.AttemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, replica+path, bytes.NewReader(body))
	if err != nil {
		return attemptResult{err: err, reason: "connect"}
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if id := obs.RequestID(ctx); id != "" {
		req.Header.Set("X-Request-Id", id)
	}

	start := time.Now()
	resp, err := g.client.Do(req)
	if err != nil {
		g.met.upstreamErrors.With("replica", replica).Inc()
		return attemptResult{err: err, reason: transportReason(err)}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		// Headers arrived but the body died: a mid-stream reset.
		g.met.upstreamErrors.With("replica", replica).Inc()
		return attemptResult{err: fmt.Errorf("reading upstream body from %s: %w", replica, err), reason: "reset"}
	}
	up := &upstream{status: resp.StatusCode, header: resp.Header, body: data, replica: replica}
	if retryableStatus(resp.StatusCode) {
		g.met.upstreamErrors.With("replica", replica).Inc()
		reason := "status-5xx"
		if resp.StatusCode == http.StatusServiceUnavailable {
			reason = "status-503"
		}
		return attemptResult{up: up, reason: reason}
	}
	lat := time.Since(start)
	g.hedgeWindow.add(lat)
	g.latencyOf(replica).add(lat)
	g.met.upstreamSeconds.With("replica", replica).Observe(lat.Seconds())
	return attemptResult{up: up}
}

// transportReason classifies a transport error for the retry counter.
func transportReason(err error) string {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() || errors.Is(err, context.DeadlineExceeded) {
		return "timeout"
	}
	return "connect"
}

// latencyOf returns replica's latency window, creating it for names the
// config did not list (defensive; Pick only yields configured names).
func (g *Gateway) latencyOf(replica string) *latencyWindow {
	g.latMu.Lock()
	defer g.latMu.Unlock()
	w := g.latencies[replica]
	if w == nil {
		w = newLatencyWindow()
		g.latencies[replica] = w
	}
	return w
}

type errorBody struct {
	Error     string `json:"error"`
	RequestID string `json:"requestId,omitempty"`
}

func writeJSONError(w http.ResponseWriter, status int, msg, id string) {
	writeJSON(w, status, errorBody{Error: msg, RequestID: id})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, `{"error":"encoding failure"}`, http.StatusInternalServerError)
		return
	}
	data = append(data, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(data)
}
