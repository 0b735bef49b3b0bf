package server

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"vsfs/internal/guard"
)

var promSample = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(?:[a-zA-Z_][a-zA-Z0-9_]*="[^"]*",?)*\})? (-?[0-9.]+(?:[eE][+-]?[0-9]+)?|\+Inf|NaN)$`)

// parsePrometheus validates text-format exposition and returns the
// samples as metricName{labels} → value.
func parsePrometheus(t *testing.T, body string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			switch f[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("unknown metric type in %q", line)
			}
			typed[f[2]] = true
			continue
		}
		m := promSample.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line: %q", line)
		}
		base := m[1]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(base, suffix) && typed[strings.TrimSuffix(base, suffix)] {
				base = strings.TrimSuffix(base, suffix)
			}
		}
		if !typed[base] {
			t.Fatalf("sample %q precedes its # TYPE line", line)
		}
		v, err := strconv.ParseFloat(strings.Replace(m[3], "+Inf", "Inf", 1), 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		samples[m[1]+m[2]] = v
	}
	return samples
}

func TestMetricsEndpointPrometheusFormat(t *testing.T) {
	s := newTestServer(t, Config{})

	if code, _, body := post(t, s, "/analyze", AnalyzeRequest{Source: smallC}); code != http.StatusOK {
		t.Fatalf("POST /analyze = %d: %s", code, body)
	}
	if code, _, body := post(t, s, "/analyze", AnalyzeRequest{Source: smallC}); code != http.StatusOK {
		t.Fatalf("repeat POST /analyze = %d: %s", code, body)
	}
	if code, _, body := post(t, s, "/analyze", AnalyzeRequest{Source: smallC, Mode: "cfgfree"}); code != http.StatusOK {
		t.Fatalf("cfgfree POST /analyze = %d: %s", code, body)
	}

	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain", ct)
	}
	samples := parsePrometheus(t, rec.Body.String())

	if got := samples[`vsfs_cache_requests_total{result="miss"}`]; got != 2 {
		t.Errorf("cache misses = %v, want 2 (vsfs and cfgfree solve separately)", got)
	}
	if got := samples[`vsfs_cache_requests_total{result="hit"}`]; got != 1 {
		t.Errorf("cache hits = %v, want 1", got)
	}
	if got := samples[`vsfs_requests_total{mode="vsfs"}`]; got != 2 {
		t.Errorf("vsfs requests = %v, want 2", got)
	}
	if got := samples[`vsfs_requests_total{mode="cfgfree"}`]; got != 1 {
		t.Errorf("cfgfree requests = %v, want 1", got)
	}
	if got := samples[`vsfs_requests_total{mode="sfs"}`]; got != 0 {
		t.Errorf("sfs requests = %v, want materialised 0", got)
	}
	if got := samples[`vsfs_solve_seconds_count`]; got != 2 {
		t.Errorf("solve count = %v, want 2", got)
	}
	for _, ph := range []string{"andersen", "solve"} {
		key := `vsfs_solve_phase_seconds_count{phase="` + ph + `"}`
		if got := samples[key]; got != 2 {
			t.Errorf("%s = %v, want 2", key, got)
		}
	}
	// The cfgfree solve skips memssa/svfg but still observes zeros.
	for _, ph := range []string{"memssa", "svfg"} {
		key := `vsfs_solve_phase_seconds_count{phase="` + ph + `"}`
		if got := samples[key]; got != 2 {
			t.Errorf("%s = %v, want 2", key, got)
		}
	}

	// The same counter feeds /stats.
	st := s.Stats()
	if st.RequestsByMode["vsfs"] != 2 || st.RequestsByMode["cfgfree"] != 1 || st.RequestsByMode["sfs"] != 0 {
		t.Errorf("Stats RequestsByMode = %v", st.RequestsByMode)
	}
	if _, ok := samples[`vsfs_uptime_seconds`]; !ok {
		t.Error("vsfs_uptime_seconds missing")
	}

	// Histogram buckets must be cumulative (monotone non-decreasing in
	// le order) and end at +Inf == _count.
	checkHistogram(t, samples, "vsfs_solve_seconds", "")
	checkHistogram(t, samples, "vsfs_solve_phase_seconds", `phase="solve"`)
	checkHistogram(t, samples, "vsfs_points_to_sets", "")
}

func checkHistogram(t *testing.T, samples map[string]float64, name, label string) {
	t.Helper()
	type bkt struct {
		le float64
		n  float64
	}
	var buckets []bkt
	for k, v := range samples {
		if !strings.HasPrefix(k, name+"_bucket{") || !strings.Contains(k, label) {
			continue
		}
		i := strings.Index(k, `le="`)
		le := k[i+4 : strings.Index(k[i+4:], `"`)+i+4]
		f := float64(0)
		if le == "+Inf" {
			f = 1e308
		} else {
			var err error
			if f, err = strconv.ParseFloat(le, 64); err != nil {
				t.Fatalf("bad le in %q: %v", k, err)
			}
		}
		buckets = append(buckets, bkt{f, v})
	}
	if len(buckets) < 2 {
		t.Fatalf("histogram %s{%s}: found %d buckets", name, label, len(buckets))
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	for i := 1; i < len(buckets); i++ {
		if buckets[i].n < buckets[i-1].n {
			t.Fatalf("histogram %s{%s}: bucket counts not monotone at le=%g", name, label, buckets[i].le)
		}
	}
	var count float64
	for k, v := range samples {
		if strings.HasPrefix(k, name+"_count") && strings.Contains(k, label) {
			count = v
		}
	}
	if last := buckets[len(buckets)-1]; last.n != count {
		t.Fatalf("histogram %s{%s}: +Inf bucket %g != count %g", name, label, last.n, count)
	}
}

func TestPprofGatedByConfig(t *testing.T) {
	off := newTestServer(t, Config{})
	if code, _ := get(t, off, "/debug/pprof/"); code != http.StatusNotFound {
		t.Fatalf("pprof without EnablePprof = %d, want 404", code)
	}
	on := newTestServer(t, Config{EnablePprof: true})
	if code, _ := get(t, on, "/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("pprof with EnablePprof = %d, want 200", code)
	}
}

func TestRequestIDEchoedAndGenerated(t *testing.T) {
	s := newTestServer(t, Config{})

	req := httptest.NewRequest("GET", "/healthz", nil)
	req.Header.Set("X-Request-Id", "client-chosen-7")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-Id"); got != "client-chosen-7" {
		t.Fatalf("X-Request-Id = %q, want the client's own id", got)
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Header().Get("X-Request-Id") == "" {
		t.Fatal("no X-Request-Id generated")
	}
}

// TestRequestIDInShedResponse: the satellite bugfix — a 503 from the
// shed path must carry the request ID in its body so the client can
// quote it back at the operator.
func TestRequestIDInShedResponse(t *testing.T) {
	s := New(Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}

	data, _ := json.Marshal(AnalyzeRequest{Source: smallC})
	req := httptest.NewRequest("POST", "/analyze", bytes.NewReader(data))
	req.Header.Set("X-Request-Id", "shed-me-42")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("analyze after Close = %d, want 503", rec.Code)
	}
	var resp errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.RequestID != "shed-me-42" {
		t.Fatalf("error body requestId = %q, want shed-me-42", resp.RequestID)
	}
}

func TestStatsUptimeAndWorkers(t *testing.T) {
	s := newTestServer(t, Config{Workers: 3})
	if code, _, body := post(t, s, "/analyze", AnalyzeRequest{Source: smallC}); code != http.StatusOK {
		t.Fatalf("POST /analyze = %d: %s", code, body)
	}
	code, body := get(t, s, "/stats")
	if code != http.StatusOK {
		t.Fatalf("GET /stats = %d", code)
	}
	var st StatsSnapshot
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.UptimeSeconds <= 0 {
		t.Errorf("uptimeSeconds = %v, want > 0", st.UptimeSeconds)
	}
	if st.Workers != 3 {
		t.Errorf("workers = %d, want 3", st.Workers)
	}
	if st.WorkersBusy < 0 || st.WorkersBusy > 3 {
		t.Errorf("workersBusy = %d, want within [0,3]", st.WorkersBusy)
	}
	if st.SolvesOK != 1 || st.AvgSolveMs <= 0 {
		t.Errorf("solvesOK = %d avgSolveMs = %v, want 1 and > 0", st.SolvesOK, st.AvgSolveMs)
	}
	if !strings.Contains(string(body), `"uptimeSeconds"`) || !strings.Contains(string(body), `"workersBusy"`) {
		t.Error("stats JSON missing uptimeSeconds/workersBusy fields")
	}
}

func TestAccessLogCarriesRequestIDAndCacheStatus(t *testing.T) {
	var buf bytes.Buffer
	s := newTestServer(t, Config{
		Logger: slog.New(slog.NewJSONHandler(&buf, nil)),
	})
	for i := 0; i < 2; i++ {
		data, _ := json.Marshal(AnalyzeRequest{Source: smallC})
		req := httptest.NewRequest("POST", "/analyze", bytes.NewReader(data))
		req.Header.Set("X-Request-Id", "log-check-"+strconv.Itoa(i))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("POST /analyze #%d = %d", i, rec.Code)
		}
	}
	logs := buf.String()
	for _, want := range []string{
		`"id":"log-check-0"`, `"id":"log-check-1"`,
		`"path":"/analyze"`, `"cache":"miss"`, `"cache":"hit"`,
	} {
		if !strings.Contains(logs, want) {
			t.Errorf("access log missing %s; got:\n%s", want, logs)
		}
	}
}

// TestStatsPhasesReadPhaseRecords: /stats' phase sums are the sums of
// the solved Results' phase records, the CFG-free rung counted as
// solve, and /metrics carries a vsfs_solve_phase_seconds series for
// every pipeline phase. A solve-phase fault under a step budget sends
// the vsfs and sfs solves down the ladder, so the rung is in the sums.
func TestStatsPhasesReadPhaseRecords(t *testing.T) {
	plan := guard.NewFaultPlan(guard.Fault{Phase: guard.PhaseSolve, Kind: guard.FaultSlow})
	s := newTestServer(t, Config{Workers: 1, StepBudget: 1 << 30, Faults: plan})
	for _, mode := range analysisModes {
		if code, _, body := post(t, s, "/analyze", AnalyzeRequest{Source: smallC, Mode: mode}); code != http.StatusOK {
			t.Fatalf("%s: POST /analyze = %d: %s", mode, code, body)
		}
	}

	want := map[string]time.Duration{}
	s.cache.mu.Lock()
	for _, el := range s.cache.m {
		for _, p := range el.Value.(*cacheEntry).res.Phases() {
			want[p.Name] += p.Wall
		}
	}
	n := len(s.cache.m)
	s.cache.mu.Unlock()
	if n != len(analysisModes) || want[guard.PhaseRung] == 0 {
		t.Fatalf("cached %d results (rung wall %v), want %d and a rung", n, want[guard.PhaseRung], len(analysisModes))
	}
	want[guard.PhaseSolve] += want[guard.PhaseRung]

	st := s.Stats()
	for _, c := range []struct {
		phase string
		got   float64
	}{
		{guard.PhaseAndersen, st.Phase.Andersen},
		{guard.PhaseMemSSA, st.Phase.MemSSA},
		{guard.PhaseSVFG, st.Phase.SVFG},
		{guard.PhaseSolve, st.Phase.Solve},
	} {
		ms := want[c.phase].Seconds() * 1e3
		if math.Abs(c.got-ms) > 1e-6*ms+1e-9 {
			t.Errorf("/stats phase %s = %v ms, want %v ms from the phase records", c.phase, c.got, ms)
		}
	}

	_, body := get(t, s, "/metrics")
	samples := parsePrometheus(t, string(body))
	for _, ph := range guard.PipelinePhases {
		key := `vsfs_solve_phase_seconds_count{phase="` + ph + `"}`
		if got, ok := samples[key]; !ok || got != float64(n) {
			t.Errorf("%s = %v (present %v), want %d", key, got, ok, n)
		}
	}
}
