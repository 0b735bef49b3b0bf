package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"vsfs/internal/guard"
)

// goroutineCount samples the goroutine count after giving transient
// goroutines (HTTP plumbing, abandoned waiters) time to exit.
func goroutineCount() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m >= n {
			return m
		}
		n = m
	}
	return n
}

// TestFaultedPhasesServerSurvives injects a deterministic panic into
// each pipeline phase in turn and proves the daemon converts it into a
// structured 500, keeps its workers, and serves the next request.
func TestFaultedPhasesServerSurvives(t *testing.T) {
	before := goroutineCount()
	for _, phase := range guard.PipelinePhases {
		t.Run(phase, func(t *testing.T) {
			plan := guard.NewFaultPlan(guard.Fault{Phase: phase, Step: 0, Kind: guard.FaultPanic, Times: 1})
			s := newTestServer(t, Config{Workers: 2, Faults: plan})

			code, _, body := post(t, s, "/analyze", AnalyzeRequest{Source: smallC})
			if code != http.StatusInternalServerError {
				t.Fatalf("faulted analyze = %d, want 500 (body %s)", code, body)
			}
			var er struct {
				Error     string `json:"error"`
				RequestID string `json:"requestId"`
			}
			if err := json.Unmarshal(body, &er); err != nil {
				t.Fatalf("500 body is not structured JSON: %v: %s", err, body)
			}
			if !strings.Contains(er.Error, "panic in "+phase) || er.RequestID == "" {
				t.Fatalf("500 body = %+v, want phase %q and a request id", er, phase)
			}
			if st := s.Stats(); st.GuardPanics != 1 {
				t.Fatalf("GuardPanics = %d, want 1", st.GuardPanics)
			}

			// The plan is spent (Times: 1); the same pool must now solve.
			code, _, body = post(t, s, "/analyze", AnalyzeRequest{Source: smallC})
			if code != http.StatusOK {
				t.Fatalf("post-panic analyze = %d, want 200 (body %s)", code, body)
			}
		})
	}
	if after := goroutineCount(); after > before+3 {
		t.Fatalf("goroutines grew from %d to %d across faulted servers", before, after)
	}
}

// TestDegradedThroughServer drives a budget blowout in the solve phase
// end-to-end: the response must be a 200 carrying the degradation
// ladder's CFG-free rung, marked degraded in both body and header,
// cached, and counted.
func TestDegradedThroughServer(t *testing.T) {
	plan := guard.NewFaultPlan(guard.Fault{Phase: "solve", Step: 0, Kind: guard.FaultSlow})
	s := newTestServer(t, Config{Workers: 1, StepBudget: 1 << 30, Faults: plan})

	code, hdr, body := post(t, s, "/analyze", AnalyzeRequest{Source: smallC})
	if code != http.StatusOK {
		t.Fatalf("degraded analyze = %d, want 200 (body %s)", code, body)
	}
	if hdr.Get("X-Vsfs-Degraded") != "true" {
		t.Fatal("degraded response missing X-Vsfs-Degraded header")
	}
	var resp AnalyzeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Report.Degraded || resp.Report.Degradation == "" {
		t.Fatalf("report not marked degraded: %+v", resp.Report)
	}
	if resp.Mode != "cfgfree" || resp.Report.Mode != "cfgfree" {
		t.Fatalf("degraded mode = %q/%q, want the cfgfree rung", resp.Mode, resp.Report.Mode)
	}

	// Repeat must be a cache hit with a byte-identical body — the
	// degraded result self-heals repeated over-budget programs.
	code2, hdr2, body2 := post(t, s, "/analyze", AnalyzeRequest{Source: smallC})
	if code2 != http.StatusOK || hdr2.Get("X-Vsfs-Cache") != "hit" {
		t.Fatalf("repeat = %d cache=%q, want 200 hit", code2, hdr2.Get("X-Vsfs-Cache"))
	}
	if !bytes.Equal(body, body2) {
		t.Fatal("cache hit body differs from degraded miss")
	}
	if hdr2.Get("X-Vsfs-Degraded") != "true" {
		t.Fatal("cached degraded response missing X-Vsfs-Degraded header")
	}

	st := s.Stats()
	if st.DegradedResults != 1 || st.BudgetExceeded != 1 {
		t.Fatalf("DegradedResults = %d, BudgetExceeded = %d, want 1, 1", st.DegradedResults, st.BudgetExceeded)
	}
	if st.SolveErrors != 0 {
		t.Fatalf("SolveErrors = %d: degradation must not count as an error", st.SolveErrors)
	}

	// The mandated counters are on /metrics too.
	_, metrics := get(t, s, "/metrics")
	for _, want := range []string{
		"vsfs_degraded_results_total 1",
		`vsfs_budget_exceeded_total{phase="solve",resource="steps"} 1`,
		"vsfs_shed_requests_total 0",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestRepeatFailureAnswersAlike pins that a request's answer depends
// only on its input and its budget, never on earlier traffic: a program
// that fails on every solve is solved, and fails, the same way each time
// it is sent, however often it has failed before.
func TestRepeatFailureAnswersAlike(t *testing.T) {
	const repeats = 6
	t.Run("panic", func(t *testing.T) {
		plan := guard.NewFaultPlan(guard.Fault{Phase: "solve", Step: 0, Kind: guard.FaultPanic, Times: 0})
		s := newTestServer(t, Config{Workers: 1, Faults: plan})
		for i := 1; i <= repeats; i++ {
			code, hdr, body := post(t, s, "/analyze", AnalyzeRequest{Source: smallC})
			if code != http.StatusInternalServerError {
				t.Fatalf("request %d = %d, want 500 (body %s)", i, code, body)
			}
			if ra := hdr.Get("Retry-After"); ra != "" {
				t.Fatalf("request %d: a panic carries Retry-After %q", i, ra)
			}
			if !strings.Contains(string(body), "panic in solve") {
				t.Fatalf("request %d body: %s", i, body)
			}
			if st := s.Stats(); st.GuardPanics != int64(i) || st.Solves != int64(i) {
				t.Fatalf("after request %d: GuardPanics = %d, Solves = %d; want %d, %d",
					i, st.GuardPanics, st.Solves, i, i)
			}
		}
	})
	t.Run("budget", func(t *testing.T) {
		// One step is far below what Andersen needs, and a breach before
		// the auxiliary result exists has no rung to degrade to.
		s := newTestServer(t, Config{Workers: 1, StepBudget: 1})
		for i := 1; i <= repeats; i++ {
			code, hdr, body := post(t, s, "/analyze", AnalyzeRequest{Source: smallC})
			if code != http.StatusServiceUnavailable {
				t.Fatalf("request %d = %d, want 503 (body %s)", i, code, body)
			}
			if ra := hdr.Get("Retry-After"); ra != "5" {
				t.Fatalf("request %d: Retry-After = %q, want 5", i, ra)
			}
			if st := s.Stats(); st.BudgetExceeded != int64(i) || st.Solves != int64(i) {
				t.Fatalf("after request %d: BudgetExceeded = %d, Solves = %d; want %d, %d",
					i, st.BudgetExceeded, st.Solves, i, i)
			}
		}
		if _, metrics := get(t, s, "/metrics"); !strings.Contains(string(metrics),
			fmt.Sprintf(`vsfs_budget_exceeded_total{phase="andersen",resource="steps"} %d`, repeats)) {
			t.Errorf("/metrics does not count %d andersen step breaches:\n%s", repeats, metrics)
		}
	})
}

// TestOverloadRecovery floods a tiny server far past its queue bound
// and then proves the shed was clean: every rejection carried
// Retry-After, no goroutines leaked, and the pool still serves.
func TestOverloadRecovery(t *testing.T) {
	before := goroutineCount()
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	const burst = 24
	var wg sync.WaitGroup
	type reply struct {
		code       int
		retryAfter string
	}
	replies := make([]reply, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, hdr, _ := post(t, s, "/analyze",
				AnalyzeRequest{Source: mediumIR(int64(700 + i)), Lang: "ir"})
			replies[i] = reply{code, hdr.Get("Retry-After")}
		}(i)
	}
	wg.Wait()

	ok, shed := 0, 0
	for i, r := range replies {
		switch r.code {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			shed++
			if r.retryAfter == "" {
				t.Errorf("request %d shed without Retry-After", i)
			}
		default:
			t.Fatalf("request %d: unexpected status %d", i, r.code)
		}
	}
	if ok == 0 || shed == 0 {
		t.Fatalf("ok = %d, shed = %d; want both nonzero", ok, shed)
	}
	if st := s.Stats(); st.ShedRequests != int64(shed) {
		t.Fatalf("ShedRequests = %d, want %d", st.ShedRequests, shed)
	}

	// The flood is over: the pool still serves fresh work promptly.
	if code, _, body := post(t, s, "/analyze", AnalyzeRequest{Source: smallC}); code != http.StatusOK {
		t.Fatalf("post-flood analyze = %d (body %s)", code, body)
	}
	if after := goroutineCount(); after > before+5 {
		t.Fatalf("goroutines grew from %d to %d after flood", before, after)
	}
}

// TestServerBudgetPoolSplit: the per-solve budget is the server-wide
// pool divided across workers.
func TestServerBudgetPoolSplit(t *testing.T) {
	s := New(Config{Workers: 4, StepBudget: 1000, MemBudget: 400})
	defer s.Close(context.Background())
	if s.stepsPerSolve != 250 || s.memPerSolve != 100 {
		t.Fatalf("per-solve budgets = %d steps, %d bytes; want 250, 100", s.stepsPerSolve, s.memPerSolve)
	}
}
