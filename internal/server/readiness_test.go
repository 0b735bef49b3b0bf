package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestReadyzDrainAware: /readyz is the load-balancer's routing signal —
// 200 while serving, 503 with Retry-After the moment Close begins —
// while /healthz stays a pure liveness check that never flips.
func TestReadyzDrainAware(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})

	code, body := get(t, s, "/readyz")
	if code != http.StatusOK {
		t.Fatalf("pre-drain /readyz = %d: %s", code, body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if !s.Draining() {
		t.Fatal("Draining() false after Close")
	}

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("post-drain /readyz = %d, want 503", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Errorf("post-drain Retry-After = %q, want 1", ra)
	}

	if code, _ := get(t, s, "/healthz"); code != http.StatusOK {
		t.Errorf("post-drain /healthz = %d; liveness must not follow readiness", code)
	}
}

// TestQueueShedRetryAfter rides the full HTTP path: every queue-full
// rejection carries the same Retry-After, whatever was shed before it.
func TestQueueShedRetryAfter(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	// Overflow the tiny pool with distinct programs (identical ones
	// would coalesce in the single-flight layer instead of shedding).
	const burst = 24
	headers := make([]http.Header, burst)
	codes := make([]int, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], headers[i], _ = post(t, s, "/analyze",
				AnalyzeRequest{Source: mediumIR(int64(7100 + i)), Lang: "ir"})
		}(i)
	}
	wg.Wait()

	shed := 0
	for i := 0; i < burst; i++ {
		if codes[i] != http.StatusServiceUnavailable {
			continue
		}
		shed++
		if ra := headers[i].Get("Retry-After"); ra != "1" {
			t.Fatalf("request %d: shed Retry-After = %q, want 1", i, ra)
		}
	}
	if shed == 0 {
		t.Fatal("no request was shed; the burst did not overflow the queue")
	}
}
