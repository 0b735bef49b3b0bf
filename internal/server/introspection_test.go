package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"vsfs/internal/obs"
)

func TestHealthzReportsVersion(t *testing.T) {
	s := newTestServer(t, Config{})
	code, body := get(t, s, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("GET /healthz = %d, want 200", code)
	}
	var h struct {
		Status  string `json:"status"`
		Version string `json:"version"`
		Go      string `json:"go"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Version != obs.Version || h.Go != obs.GoVersion() {
		t.Fatalf("healthz = %+v, want status ok, version %s, go %s", h, obs.Version, obs.GoVersion())
	}
}

func TestRunsWithoutLedgerIs404(t *testing.T) {
	s := newTestServer(t, Config{})
	code, body := get(t, s, "/runs")
	if code != http.StatusNotFound {
		t.Fatalf("GET /runs without ledger = %d, want 404 (body %s)", code, body)
	}
	if !strings.Contains(string(body), "-ledger") {
		t.Fatalf("404 body should point at the -ledger flag: %s", body)
	}
}

func TestRunsTailsLedger(t *testing.T) {
	led, err := obs.OpenLedger(filepath.Join(t.TempDir(), "runs.jsonl"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	s := newTestServer(t, Config{Ledger: led})

	// Two distinct programs plus one cache hit: the ledger records
	// solves, not requests, so exactly two records.
	if code, _, _ := post(t, s, "/analyze", AnalyzeRequest{Source: smallC}); code != 200 {
		t.Fatalf("analyze = %d", code)
	}
	other := strings.Replace(smallC, "int g;", "int g; int h;", 1)
	if code, _, _ := post(t, s, "/analyze", AnalyzeRequest{Source: other}); code != 200 {
		t.Fatalf("analyze = %d", code)
	}
	if code, _, _ := post(t, s, "/analyze", AnalyzeRequest{Source: smallC}); code != 200 {
		t.Fatalf("cache-hit analyze = %d", code)
	}

	code, body := get(t, s, "/runs")
	if code != http.StatusOK {
		t.Fatalf("GET /runs = %d (body %s)", code, body)
	}
	var resp RunsResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Runs) != 2 {
		t.Fatalf("got %d run records, want 2 (cache hits must not re-append): %s", len(resp.Runs), body)
	}
	for i, raw := range resp.Runs {
		var rec struct {
			Time    string `json:"time"`
			Backend string `json:"backend"`
			Shape   struct {
				Instrs int `json:"instrs"`
			} `json:"shape"`
			TotalMs float64 `json:"totalMs"`
		}
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.Time == "" || rec.Backend == "" || rec.Shape.Instrs == 0 {
			t.Fatalf("record %d missing fields: %s", i, raw)
		}
	}

	// ?n truncates to the newest records.
	code, body = get(t, s, "/runs?n=1")
	if code != http.StatusOK {
		t.Fatalf("GET /runs?n=1 = %d", code)
	}
	resp = RunsResponse{}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Runs) != 1 {
		t.Fatalf("got %d run records with n=1, want 1", len(resp.Runs))
	}

	if code, _ := get(t, s, "/runs?n=bogus"); code != http.StatusBadRequest {
		t.Fatalf("GET /runs?n=bogus = %d, want 400", code)
	}

	// Out-of-range counts clamp to the documented edges instead of
	// erroring: dashboards that miscompute zero or ask for "everything"
	// still get an answer.
	for _, q := range []string{"-3", "0"} {
		code, body = get(t, s, "/runs?n="+q)
		if code != http.StatusOK {
			t.Fatalf("GET /runs?n=%s = %d, want 200 (clamped to 1)", q, code)
		}
		resp = RunsResponse{}
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Runs) != 1 {
			t.Fatalf("GET /runs?n=%s returned %d records, want 1 (clamped)", q, len(resp.Runs))
		}
	}
	code, body = get(t, s, "/runs?n=99999999")
	if code != http.StatusOK {
		t.Fatalf("GET /runs?n=99999999 = %d, want 200 (clamped to MaxRunsTail)", code)
	}
	resp = RunsResponse{}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Runs) != 2 {
		t.Fatalf("GET /runs?n=99999999 returned %d records, want all 2", len(resp.Runs))
	}
}

func TestAttributionSurfacesInReportAndMetrics(t *testing.T) {
	s := newTestServer(t, Config{Attribution: true})
	code, _, body := post(t, s, "/analyze", AnalyzeRequest{Source: smallC})
	if code != 200 {
		t.Fatalf("analyze = %d: %s", code, body)
	}
	var resp struct {
		Report struct {
			HotObjects []struct {
				Object string `json:"object"`
				Pops   uint64 `json:"pops"`
			} `json:"hotObjects"`
			Shape struct {
				Instrs int `json:"instrs"`
			} `json:"shape"`
		} `json:"report"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	rep := resp.Report
	if len(rep.HotObjects) == 0 {
		t.Fatal("attribution enabled but report has no hotObjects")
	}
	if rep.Shape.Instrs == 0 {
		t.Fatal("report has no shape profile")
	}

	code, mbody := get(t, s, "/metrics")
	if code != 200 {
		t.Fatalf("GET /metrics = %d", code)
	}
	text := string(mbody)
	for _, want := range []string{
		"vsfs_attr_charges_total",
		"vsfs_attr_object_cost",
		"vsfs_shape_instrs",
		"vsfs_build_info",
		`version="` + obs.Version + `"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// /stats mirrors the shape gauges.
	code, sbody := get(t, s, "/stats")
	if code != 200 {
		t.Fatalf("GET /stats = %d", code)
	}
	var st StatsSnapshot
	if err := json.Unmarshal(sbody, &st); err != nil {
		t.Fatal(err)
	}
	if st.LastShape.Instrs != rep.Shape.Instrs {
		t.Fatalf("stats lastShape.instrs = %d, report shape.instrs = %d — must agree",
			st.LastShape.Instrs, rep.Shape.Instrs)
	}
}

func TestAttributionOffByDefault(t *testing.T) {
	s := newTestServer(t, Config{})
	code, _, body := post(t, s, "/analyze", AnalyzeRequest{Source: smallC})
	if code != 200 {
		t.Fatalf("analyze = %d", code)
	}
	if bytes.Contains(body, []byte(`"hotObjects"`)) {
		t.Fatalf("hotObjects present without Attribution: %s", body)
	}
	if !bytes.Contains(body, []byte(`"shape"`)) {
		t.Fatalf("shape profile must be unconditional: %s", body)
	}
}

func TestTraceDirWritesPerSolveTrace(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{TraceDir: dir})

	data, _ := json.Marshal(AnalyzeRequest{Source: smallC})
	req := httptest.NewRequest("POST", "/analyze", bytes.NewReader(data))
	req.Header.Set("X-Request-Id", "trace-me-1")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("analyze = %d", rec.Code)
	}

	path := filepath.Join(dir, "solve-trace-me-1.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no per-solve trace written: %v", err)
	}
	if !json.Valid(raw) {
		t.Fatalf("trace is not valid JSON: %s", raw)
	}
	if !bytes.Contains(raw, []byte("trace-me-1")) {
		t.Fatal("trace not tagged with the request ID")
	}
	if !bytes.Contains(raw, []byte("andersen")) {
		t.Fatal("trace has no pipeline phase events")
	}
}

func TestTraceDirSanitizesRequestID(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{TraceDir: dir})

	data, _ := json.Marshal(AnalyzeRequest{Source: smallC})
	req := httptest.NewRequest("POST", "/analyze", bytes.NewReader(data))
	req.Header.Set("X-Request-Id", "../../etc/passwd")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("analyze = %d", rec.Code)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("want exactly 1 trace inside the trace dir, got %d", len(entries))
	}
	name := entries[0].Name()
	if strings.Contains(name, "/") || strings.Contains(name, "..") {
		t.Fatalf("unsafe trace filename %q", name)
	}
}

// TestConcurrentObserveScrapeStats is the satellite race test: solves
// (which Observe histograms, set shape gauges, and append attribution
// series) racing /metrics scrapes and /stats snapshots. Run under
// -race; any unsynchronised access in the registry or snapshot path
// trips the detector.
func TestConcurrentObserveScrapeStats(t *testing.T) {
	led, err := obs.OpenLedger(filepath.Join(t.TempDir(), "runs.jsonl"), 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	s := newTestServer(t, Config{Workers: 4, Attribution: true, Ledger: led})

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				// Distinct sources defeat the cache and single-flight, so
				// every request is a real solve that writes telemetry.
				src := fmt.Sprintf("int v%d_%d;\n%s", w, i, smallC)
				if code, _, body := post(t, s, "/analyze", AnalyzeRequest{Source: src}); code != 200 {
					t.Errorf("analyze = %d: %s", code, body)
					return
				}
			}
		}(w)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if code, _ := get(t, s, "/metrics"); code != 200 {
				t.Errorf("/metrics = %d", code)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			code, body := get(t, s, "/stats")
			if code != 200 {
				t.Errorf("/stats = %d", code)
				return
			}
			var st StatsSnapshot
			if err := json.Unmarshal(body, &st); err != nil {
				t.Errorf("/stats body: %v", err)
				return
			}
			if _, err := led.Tail(5); err != nil {
				t.Errorf("concurrent ledger tail: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	// Telemetry landed: 20 solves observed.
	st := s.Stats()
	if st.SolvesOK != 20 {
		t.Fatalf("solvesOK = %d, want 20", st.SolvesOK)
	}
	if st.LastShape.Instrs == 0 {
		t.Fatal("shape gauges never set")
	}
}

// TestCacheBodyBytesExposed: the memory held by stored /analyze bodies
// shows on both surfaces, zero on a fresh server and the stored body's
// length after one /analyze.
func TestCacheBodyBytesExposed(t *testing.T) {
	s := newTestServer(t, Config{})
	read := func() (gauge float64, stats int) {
		t.Helper()
		_, mbody := get(t, s, "/metrics")
		samples := parsePrometheus(t, string(mbody))
		g, ok := samples["vsfs_cache_body_bytes"]
		if !ok {
			t.Fatal("/metrics has no vsfs_cache_body_bytes")
		}
		_, sbody := get(t, s, "/stats")
		var st StatsSnapshot
		if err := json.Unmarshal(sbody, &st); err != nil {
			t.Fatal(err)
		}
		return g, st.CacheBodyBytes
	}
	if g, st := read(); g != 0 || st != 0 {
		t.Fatalf("fresh server: gauge %v, cacheBodyBytes %d, want 0", g, st)
	}
	code, _, body := post(t, s, "/analyze", AnalyzeRequest{Source: smallC})
	if code != http.StatusOK {
		t.Fatalf("analyze = %d: %s", code, body)
	}
	if g, st := read(); g <= 0 || st != len(body) || g != float64(st) {
		t.Fatalf("after one /analyze: gauge %v, cacheBodyBytes %d, want both %d", g, st, len(body))
	}
}
