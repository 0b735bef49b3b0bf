package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeReplica is a scripted stand-in for vsfs-serve: it answers
// GET /readyz from a flippable ready flag and hands POSTs to a script.
type fakeReplica struct {
	srv      *httptest.Server
	ready    atomic.Bool
	requests atomic.Int64
	handle   func(n int64, w http.ResponseWriter, r *http.Request)
}

func newFakeReplica(t *testing.T, handle func(n int64, w http.ResponseWriter, r *http.Request)) *fakeReplica {
	t.Helper()
	f := &fakeReplica{handle: handle}
	f.ready.Store(true)
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && r.URL.Path == "/readyz" {
			if f.ready.Load() {
				w.WriteHeader(http.StatusOK)
			} else {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			return
		}
		f.handle(f.requests.Add(1), w, r)
	}))
	t.Cleanup(f.srv.Close)
	return f
}

func ok200(body string) func(int64, http.ResponseWriter, *http.Request) {
	return func(_ int64, w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, body)
	}
}

// quietConfig keeps tests deterministic: no hedging, no probe ticks
// beyond the initial sweep, tiny backoff.
func quietConfig(replicas ...string) Config {
	return Config{
		Replicas:      replicas,
		HedgeAfter:    -1,
		ProbeInterval: time.Hour,
		RetryBase:     time.Millisecond,
		RetryCap:      2 * time.Millisecond,
		RetrySeed:     1,
	}
}

func newTestGateway(t *testing.T, cfg Config) *Gateway {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		g.Close(ctx)
	})
	return g
}

func gwPost(t *testing.T, g *Gateway, path, body string) (int, http.Header, []byte) {
	t.Helper()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, req)
	return rec.Code, rec.Header(), rec.Body.Bytes()
}

func TestGatewayProxiesAndSticks(t *testing.T) {
	a := newFakeReplica(t, ok200("from-a"))
	b := newFakeReplica(t, ok200("from-b"))
	g := newTestGateway(t, quietConfig(a.srv.URL, b.srv.URL))

	body := `{"source":"int main() { return 0; }"}`
	var first string
	for i := 0; i < 5; i++ {
		code, hdr, got := gwPost(t, g, "/analyze", body)
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, code, got)
		}
		if hdr.Get("X-Vsfs-Replica") == "" {
			t.Fatal("missing X-Vsfs-Replica header")
		}
		if hdr.Get("X-Vsfs-Gateway-Attempts") != "1" {
			t.Fatalf("attempts = %q, want 1", hdr.Get("X-Vsfs-Gateway-Attempts"))
		}
		if first == "" {
			first = string(got)
		} else if string(got) != first {
			t.Fatalf("request %d landed on a different replica: %q vs %q", i, got, first)
		}
	}
	// All five went to one replica, none to the other.
	if an, bn := a.requests.Load(), b.requests.Load(); an+bn != 5 || (an != 0 && bn != 0) {
		t.Errorf("requests split a=%d b=%d; want all 5 on one replica", an, bn)
	}
}

func TestGatewayRetriesOn503ThenSucceeds(t *testing.T) {
	rep := newFakeReplica(t, func(n int64, w http.ResponseWriter, r *http.Request) {
		if n <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "finally")
	})
	g := newTestGateway(t, func() Config {
		c := quietConfig(rep.srv.URL)
		c.MaxAttempts = 3
		return c
	}())

	code, hdr, body := gwPost(t, g, "/analyze", "prog")
	if code != http.StatusOK || string(body) != "finally" {
		t.Fatalf("status %d body %q", code, body)
	}
	if got := hdr.Get("X-Vsfs-Gateway-Attempts"); got != "3" {
		t.Errorf("attempts = %q, want 3", got)
	}
	if got := g.Stats().Retries["status-503"]; got != 2 {
		t.Errorf("status-503 retries = %d, want 2", got)
	}
}

func TestGatewayBudgetExhaustedSurfacesUpstreamRejection(t *testing.T) {
	rep := newFakeReplica(t, func(n int64, w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "0")
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
	})
	g := newTestGateway(t, func() Config {
		c := quietConfig(rep.srv.URL)
		c.MaxAttempts = 2
		return c
	}())

	code, hdr, _ := gwPost(t, g, "/analyze", "prog")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 relayed from upstream", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("upstream Retry-After should be relayed")
	}
	if got := rep.requests.Load(); got != 2 {
		t.Errorf("upstream saw %d attempts, want exactly the budget of 2", got)
	}
}

func TestGateway4xxIsFinal(t *testing.T) {
	rep := newFakeReplica(t, func(n int64, w http.ResponseWriter, r *http.Request) {
		http.Error(w, "bad program", http.StatusBadRequest)
	})
	g := newTestGateway(t, func() Config {
		c := quietConfig(rep.srv.URL)
		c.MaxAttempts = 4
		return c
	}())

	code, _, _ := gwPost(t, g, "/analyze", "prog")
	if code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", code)
	}
	if got := rep.requests.Load(); got != 1 {
		t.Errorf("4xx was retried: %d attempts", got)
	}
}

func TestGatewayFailsOverOnConnectError(t *testing.T) {
	live := newFakeReplica(t, ok200("alive"))
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // connection refused from here on

	g := newTestGateway(t, func() Config {
		c := quietConfig(live.srv.URL, deadURL)
		c.MaxAttempts = 3
		return c
	}())

	// Across many distinct keys some route to the dead replica first;
	// every one of them must fail over and succeed.
	connectRetries := false
	for i := 0; i < 20; i++ {
		code, _, body := gwPost(t, g, "/analyze", fmt.Sprintf("prog-%d", i))
		if code != http.StatusOK || string(body) != "alive" {
			t.Fatalf("request %d: status %d body %q", i, code, body)
		}
	}
	if g.Stats().Retries["connect"] > 0 {
		connectRetries = true
	}
	if !connectRetries {
		t.Error("20 keys across 2 replicas never hit the dead one — failover untested")
	}
}

func TestGatewayHedgesSlowPrimary(t *testing.T) {
	slow := newFakeReplica(t, func(n int64, w http.ResponseWriter, r *http.Request) {
		time.Sleep(300 * time.Millisecond)
		io.WriteString(w, "slow")
	})
	fast := newFakeReplica(t, ok200("fast"))
	cfg := quietConfig(slow.srv.URL, fast.srv.URL)
	cfg.HedgeAfter = 20 * time.Millisecond
	cfg.MaxAttempts = 2
	g := newTestGateway(t, cfg)

	// Find a body whose primary is the slow replica.
	body := ""
	for i := 0; i < 200; i++ {
		candidate := fmt.Sprintf("prog-%d", i)
		if g.Ring().Pick(RouteKey("", "", candidate))[0] == slow.srv.URL {
			body = candidate
			break
		}
	}
	if body == "" {
		t.Fatal("no key routes to the slow replica first")
	}

	start := time.Now()
	code, hdr, got := gwPost(t, g, "/analyze", body)
	if code != http.StatusOK || string(got) != "fast" {
		t.Fatalf("status %d body %q, want the hedge's answer", code, got)
	}
	if hdr.Get("X-Vsfs-Replica") != fast.srv.URL {
		t.Errorf("X-Vsfs-Replica = %q, want the fast replica", hdr.Get("X-Vsfs-Replica"))
	}
	if elapsed := time.Since(start); elapsed >= 300*time.Millisecond {
		t.Errorf("hedged request took %v — waited out the slow primary", elapsed)
	}
	if won := g.Stats().HedgesWon; won != 1 {
		t.Errorf("HedgesWon = %d, want 1", won)
	}
}

func TestGatewayHealthEjectsAndReadmits(t *testing.T) {
	flaky := newFakeReplica(t, ok200("flaky"))
	steady := newFakeReplica(t, ok200("steady"))
	cfg := quietConfig(flaky.srv.URL, steady.srv.URL)
	cfg.ProbeInterval = 10 * time.Millisecond
	cfg.EjectAfter = 2
	cfg.ReadmitAfter = 2
	g := newTestGateway(t, cfg)

	flaky.ready.Store(false)
	waitFor(t, "ejection", func() bool { return !g.Ring().Healthy(flaky.srv.URL) })
	if got := g.Stats().Ejections; got != 1 {
		t.Errorf("Ejections = %d, want 1", got)
	}

	// While ejected, every key routes to the steady replica.
	for i := 0; i < 10; i++ {
		code, hdr, _ := gwPost(t, g, "/analyze", fmt.Sprintf("prog-%d", i))
		if code != http.StatusOK {
			t.Fatalf("request %d failed with %d", i, code)
		}
		if hdr.Get("X-Vsfs-Replica") != steady.srv.URL {
			t.Fatalf("request %d routed to ejected replica", i)
		}
	}

	flaky.ready.Store(true)
	waitFor(t, "readmission", func() bool { return g.Ring().Healthy(flaky.srv.URL) })
	s := g.Stats()
	if s.Readmissions != 1 {
		t.Errorf("Readmissions = %d, want 1", s.Readmissions)
	}
	if s.RingRebalances != 2 {
		t.Errorf("RingRebalances = %d, want 2", s.RingRebalances)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestGatewayDrain(t *testing.T) {
	rep := newFakeReplica(t, ok200("ok"))
	g := newTestGateway(t, quietConfig(rep.srv.URL))

	req := httptest.NewRequest("GET", "/readyz", nil)
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("pre-drain /readyz = %d", rec.Code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := g.Close(ctx); err != nil {
		t.Fatal(err)
	}

	rec = httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("post-drain /readyz = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("post-drain /readyz missing Retry-After")
	}
	code, hdr, _ := gwPost(t, g, "/analyze", "prog")
	if code != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Errorf("post-drain proxy = %d (Retry-After %q), want 503 with Retry-After", code, hdr.Get("Retry-After"))
	}
	// /healthz stays a pure liveness check.
	rec = httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("post-drain /healthz = %d, want 200", rec.Code)
	}
}

func TestGatewayStatsAndMetricsSurfaces(t *testing.T) {
	rep := newFakeReplica(t, ok200("ok"))
	g := newTestGateway(t, quietConfig(rep.srv.URL))
	for i := 0; i < 3; i++ {
		if code, _, _ := gwPost(t, g, "/analyze", fmt.Sprintf("p%d", i)); code != http.StatusOK {
			t.Fatal("seed request failed")
		}
	}

	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/stats = %d", rec.Code)
	}
	var snap StatsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("stats not JSON: %v", err)
	}
	if snap.Requests != 3 {
		t.Errorf("stats.Requests = %d, want 3", snap.Requests)
	}
	if len(snap.Replicas) != 1 || snap.Replicas[0].Requests != 3 || !snap.Replicas[0].Healthy {
		t.Errorf("stats.Replicas = %+v", snap.Replicas)
	}
	if snap.Replicas[0].Samples != 3 || snap.Replicas[0].P95Ms <= 0 {
		t.Errorf("latency snapshot missing: %+v", snap.Replicas[0])
	}

	rec = httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	text := rec.Body.String()
	for _, want := range []string{
		"vsfs_gateway_requests_total",
		"vsfs_gateway_retries_total",
		"vsfs_gateway_hedges_total",
		"vsfs_gateway_replica_healthy",
		"vsfs_gateway_upstream_seconds",
		"vsfs_gateway_ring_rebalances",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

func TestGatewayBodyTooLarge(t *testing.T) {
	rep := newFakeReplica(t, ok200("ok"))
	cfg := quietConfig(rep.srv.URL)
	cfg.MaxBodyBytes = 64
	g := newTestGateway(t, cfg)
	code, _, _ := gwPost(t, g, "/analyze", strings.Repeat("x", 65))
	if code != http.StatusRequestEntityTooLarge {
		t.Errorf("status %d, want 413", code)
	}
	if rep.requests.Load() != 0 {
		t.Error("oversized body reached a replica")
	}
}

func TestGatewayRelaysUpstreamAnnotations(t *testing.T) {
	rep := newFakeReplica(t, func(n int64, w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Vsfs-Cache", "hit")
		w.Header().Set("X-Vsfs-Key", "abc123")
		io.WriteString(w, "{}")
	})
	g := newTestGateway(t, quietConfig(rep.srv.URL))
	_, hdr, _ := gwPost(t, g, "/analyze", "prog")
	if hdr.Get("X-Vsfs-Cache") != "hit" || hdr.Get("X-Vsfs-Key") != "abc123" {
		t.Errorf("upstream annotations dropped: cache=%q key=%q",
			hdr.Get("X-Vsfs-Cache"), hdr.Get("X-Vsfs-Key"))
	}
}

func TestGatewayDeadlinePropagates(t *testing.T) {
	rep := newFakeReplica(t, func(n int64, w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(2 * time.Second):
			io.WriteString(w, "too late")
		}
	})
	g := newTestGateway(t, quietConfig(rep.srv.URL))

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req := httptest.NewRequest("POST", "/analyze", strings.NewReader("prog")).WithContext(ctx)
	rec := httptest.NewRecorder()
	start := time.Now()
	g.ServeHTTP(rec, req)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("deadline ignored: took %v", elapsed)
	}
	if rec.Code != http.StatusGatewayTimeout {
		t.Errorf("status %d, want 504", rec.Code)
	}
}
