package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"vsfs"
	"vsfs/internal/workload"
)

const smallC = `
int g;
int *gp;
void set(int *x) { gp = x; }
int main() {
  int a;
  int *p;
  p = &a;
  set(p);
  return 0;
}
`

// mediumIR / slowIR generate deterministic workload programs sized so a
// solve takes long enough (~100ms / ~300ms uninstrumented) for requests
// to genuinely overlap in the concurrency tests.
func sizedIR(funcs, instrs int, seed int64) string {
	cfg := workload.DefaultRandomConfig()
	cfg.Funcs = funcs
	cfg.InstrsPerFunc = instrs
	cfg.GlobalBias = 0.2
	cfg.ChainFrac = 0.2
	cfg.ChainLen = 5
	return workload.Random(seed, cfg).String()
}

func mediumIR(seed int64) string { return sizedIR(18, 60, seed) }
func slowIR(seed int64) string   { return sizedIR(22, 65, seed) }

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s
}

// post sends a JSON POST through the full handler stack.
func post(t *testing.T, s *Server, path string, body any) (int, http.Header, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(data))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec.Code, rec.Header(), rec.Body.Bytes()
}

func get(t *testing.T, s *Server, path string) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, Config{})
	code, body := get(t, s, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("GET /healthz = %d, want 200", code)
	}
	if !strings.Contains(string(body), `"status": "ok"`) {
		t.Fatalf("unexpected body: %s", body)
	}
}

// TestQueryMatchesLibraryFacts: the service must answer exactly what
// the library (and hence cmd/vsfs) computes on the same input.
func TestQueryMatchesLibraryFacts(t *testing.T) {
	s := newTestServer(t, Config{})

	want, err := vsfs.AnalyzeC(smallC, vsfs.Options{})
	if err != nil {
		t.Fatal(err)
	}

	code, _, body := post(t, s, "/query", QueryRequest{
		AnalyzeRequest: AnalyzeRequest{Source: smallC},
		Kind:           "points-to", Func: "main", Var: "p",
	})
	if code != http.StatusOK {
		t.Fatalf("POST /query = %d: %s", code, body)
	}
	var resp QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	wantPts := want.PointsToVar("main", "p")
	if fmt.Sprint(resp.PointsTo) != fmt.Sprint(wantPts) {
		t.Fatalf("points-to(main.p) = %v, want %v", resp.PointsTo, wantPts)
	}

	code, _, body = post(t, s, "/analyze", AnalyzeRequest{Source: smallC})
	if code != http.StatusOK {
		t.Fatalf("POST /analyze = %d: %s", code, body)
	}
	var ar AnalyzeResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Dump != want.Dump() {
		t.Fatalf("server dump differs from library dump:\n%s\n---\n%s", ar.Dump, want.Dump())
	}

	// Alias and check kinds answer from the same result.
	code, _, body = post(t, s, "/query", QueryRequest{
		AnalyzeRequest: AnalyzeRequest{Source: smallC},
		Kind:           "alias", Func: "main", Var: "p", Func2: "set", Var2: "x",
	})
	if code != http.StatusOK {
		t.Fatalf("alias query = %d: %s", code, body)
	}
	var aresp QueryResponse
	if err := json.Unmarshal(body, &aresp); err != nil {
		t.Fatal(err)
	}
	if aresp.Alias == nil || *aresp.Alias != want.MayAlias("main", "p", "set", "x") {
		t.Fatalf("alias answer = %v, want %v", aresp.Alias, want.MayAlias("main", "p", "set", "x"))
	}
	code, _, body = post(t, s, "/query", QueryRequest{
		AnalyzeRequest: AnalyzeRequest{Source: smallC},
		Kind:           "check",
	})
	if code != http.StatusOK {
		t.Fatalf("check query = %d: %s", code, body)
	}
	var cresp QueryResponse
	if err := json.Unmarshal(body, &cresp); err != nil {
		t.Fatal(err)
	}
	if len(cresp.Findings) != len(want.Check()) {
		t.Fatalf("check findings = %d, want %d", len(cresp.Findings), len(want.Check()))
	}
}

// TestCacheHitByteIdentical: the second identical request must be a
// cache hit whose body is byte-for-byte the first (miss) response; the
// cache status travels in a header precisely so bodies can't differ.
func TestCacheHitByteIdentical(t *testing.T) {
	s := newTestServer(t, Config{})

	code1, hdr1, body1 := post(t, s, "/analyze", AnalyzeRequest{Source: smallC})
	code2, hdr2, body2 := post(t, s, "/analyze", AnalyzeRequest{Source: smallC})
	if code1 != 200 || code2 != 200 {
		t.Fatalf("status = %d, %d", code1, code2)
	}
	if got := hdr1.Get("X-Vsfs-Cache"); got != "miss" {
		t.Fatalf("first request cache header = %q, want miss", got)
	}
	if got := hdr2.Get("X-Vsfs-Cache"); got != "hit" {
		t.Fatalf("second request cache header = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cache hit body differs from miss body:\n%s\n---\n%s", body1, body2)
	}
	if hdr1.Get("X-Vsfs-Key") == "" || hdr1.Get("X-Vsfs-Key") != hdr2.Get("X-Vsfs-Key") {
		t.Fatalf("content keys differ: %q vs %q", hdr1.Get("X-Vsfs-Key"), hdr2.Get("X-Vsfs-Key"))
	}

	st := s.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 || st.SolvesOK != 1 {
		t.Fatalf("stats = hits %d misses %d solvesOK %d, want 1/1/1",
			st.CacheHits, st.CacheMisses, st.SolvesOK)
	}

	// Query responses are deterministic across hit/miss too.
	q := QueryRequest{AnalyzeRequest: AnalyzeRequest{Source: smallC}, Kind: "callgraph"}
	_, _, qb1 := post(t, s, "/query", q)
	_, _, qb2 := post(t, s, "/query", q)
	if !bytes.Equal(qb1, qb2) {
		t.Fatalf("query bodies differ across cache hits:\n%s\n---\n%s", qb1, qb2)
	}
}

// TestCacheHitWritesStoredBody: a hit writes the body stored by the
// first render, which must be exactly what rendering the cached Result
// afresh gives, held at its exact length.
func TestCacheHitWritesStoredBody(t *testing.T) {
	s := newTestServer(t, Config{})
	req := AnalyzeRequest{Source: mediumIR(7), Lang: "ir"}
	post(t, s, "/analyze", req)
	code, hdr, body := post(t, s, "/analyze", req)
	if code != http.StatusOK || hdr.Get("X-Vsfs-Cache") != "hit" {
		t.Fatalf("repeat analyze: %d, cache %q", code, hdr.Get("X-Vsfs-Cache"))
	}
	key := hdr.Get("X-Vsfs-Key")
	res, ok := s.cache.get(key)
	if !ok {
		t.Fatal("program not cached")
	}
	want, err := json.MarshalIndent(AnalyzeResponse{
		Key:    key,
		Mode:   res.Stats().Mode,
		Report: res.Report(),
		Dump:   res.Dump(),
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if !bytes.Equal(body, want) {
		t.Fatalf("hit body (%d bytes) differs from a fresh render of the cached Result (%d bytes)",
			len(body), len(want))
	}
	if stored := s.cache.body(key, res); len(stored) != cap(stored) || !bytes.Equal(stored, want) {
		t.Fatalf("stored body: len %d cap %d, want the rendered %d bytes at exact length",
			len(stored), cap(stored), len(want))
	}
}

// TestAnalyzeMissBodyMatchesEncodingJSON: the body a miss renders is
// encoding/json's indented AnalyzeResponse plus a newline, byte for
// byte, on three Table II profiles.
func TestAnalyzeMissBodyMatchesEncodingJSON(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, name := range []string{"du", "nano", "psql"} {
		req := AnalyzeRequest{Source: workload.ProfileByName(name).Build().String(), Lang: "ir"}
		code, hdr, body := post(t, s, "/analyze", req)
		if code != http.StatusOK || hdr.Get("X-Vsfs-Cache") != "miss" {
			t.Fatalf("%s: analyze = %d, cache %q; want a 200 miss", name, code, hdr.Get("X-Vsfs-Cache"))
		}
		key := hdr.Get("X-Vsfs-Key")
		res, ok := s.cache.get(key)
		if !ok {
			t.Fatalf("%s: program not cached", name)
		}
		want, err := json.MarshalIndent(AnalyzeResponse{
			Key:    key,
			Mode:   res.Stats().Mode,
			Report: res.Report(),
			Dump:   res.Dump(),
		}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(body, want) {
			t.Fatalf("%s: miss body (%d bytes) differs from encoding/json's (%d bytes)", name, len(body), len(want))
		}
	}
}

// TestCacheDropsStoredBody: a stored body lives only as long as the
// result it was rendered from. Replacing an entry's result and evicting
// the entry both drop it, and the body-bytes total follows.
func TestCacheDropsStoredBody(t *testing.T) {
	s := newTestServer(t, Config{CacheEntries: 1})
	_, hdr, first := post(t, s, "/analyze", AnalyzeRequest{Source: smallC})
	key := hdr.Get("X-Vsfs-Key")
	res, _ := s.cache.get(key)
	if s.cache.body(key, res) == nil || s.cache.storedBodyBytes() != len(first) {
		t.Fatalf("after a miss: body stored %v, %d body bytes, want %d",
			s.cache.body(key, res) != nil, s.cache.storedBodyBytes(), len(first))
	}

	fresh, err := vsfs.AnalyzeC(smallC, vsfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.cache.add(key, fresh)
	if s.cache.body(key, fresh) != nil || s.cache.body(key, res) != nil || s.cache.storedBodyBytes() != 0 {
		t.Fatalf("add on an existing key kept a body: %d body bytes", s.cache.storedBodyBytes())
	}
	code, hdr, again := post(t, s, "/analyze", AnalyzeRequest{Source: smallC})
	if code != http.StatusOK || hdr.Get("X-Vsfs-Cache") != "hit" || !bytes.Equal(again, first) {
		t.Fatalf("hit on the replaced result: %d, cache %q, body equal %v",
			code, hdr.Get("X-Vsfs-Cache"), bytes.Equal(again, first))
	}
	if s.cache.body(key, res) != nil {
		t.Fatal("the replaced result is served the body rendered from its successor")
	}

	other := strings.Replace(smallC, "int g;", "int g; int h;", 1)
	_, _, otherBody := post(t, s, "/analyze", AnalyzeRequest{Source: other})
	if s.cache.body(key, fresh) != nil || s.cache.storedBodyBytes() != len(otherBody) {
		t.Fatalf("eviction kept a body: %d body bytes, want %d", s.cache.storedBodyBytes(), len(otherBody))
	}
}

// TestCacheHitAllocsBounded: a hit decodes, hashes and writes stored
// bytes, so its allocations are a fixed handful however large the
// program's report is. Rendering the report allocates per fact.
func TestCacheHitAllocsBounded(t *testing.T) {
	s := newTestServer(t, Config{})
	data, err := json.Marshal(AnalyzeRequest{Source: mediumIR(7), Lang: "ir"})
	if err != nil {
		t.Fatal(err)
	}
	hit := func() {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/analyze", bytes.NewReader(data)))
		if rec.Code != http.StatusOK {
			t.Fatalf("analyze = %d", rec.Code)
		}
	}
	hit() // the miss that fills the entry
	hit() // the first hit; nothing is rendered from here on
	const bound = 150
	if n := testing.AllocsPerRun(10, hit); n > bound {
		t.Fatalf("a cache hit allocates %.0f times, want at most %d", n, bound)
	}
}

// twoTargetsC reads p while it points to a and again while it points
// to b, so a by-name query on p unions two different sets.
const twoTargetsC = `
int *gp;
void set(int *x) { gp = x; }
int main() {
  int a;
  int b;
  int *p;
  p = &a;
  set(p);
  p = &b;
  set(p);
  return 0;
}
`

// TestCacheHitsLeaveSetsFrozen: a cached Result shares one set between
// equal contents and serves concurrent requests, so a query that
// mutated a set it was handed would corrupt every later answer (and,
// under -race, race with the other readers). After concurrent cache
// hits on every endpoint and query kind, each cached Result's sets must
// hash as before.
func TestCacheHitsLeaveSetsFrozen(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4})
	progs := []AnalyzeRequest{{Source: twoTargetsC}, {Source: mediumIR(7), Lang: "ir"}}
	digests := make([]uint64, len(progs))
	results := make([]*vsfs.Result, len(progs))
	for i, req := range progs {
		code, hdr, body := post(t, s, "/analyze", req)
		if code != http.StatusOK {
			t.Fatalf("analyze %d: %d %s", i, code, body)
		}
		res, ok := s.cache.get(hdr.Get("X-Vsfs-Key"))
		if !ok {
			t.Fatalf("program %d not cached after a solve", i)
		}
		digests[i] = res.SetsDigest()
		results[i] = res
	}

	queries := []QueryRequest{
		{Kind: "points-to", Func: "main", Var: "p"},
		{Kind: "alias", Func: "main", Var: "p", Func2: "set", Var2: "x"},
		{Kind: "callgraph"},
		{Kind: "explain", Func: "main", Var: "p"},
		{Kind: "check"},
	}
	var wg sync.WaitGroup
	for i := range 24 {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := progs[i%len(progs)]
			var code int
			var hdr http.Header
			var body []byte
			switch k := i / len(progs) % (len(queries) + 3); k {
			case len(queries):
				code, hdr, body = post(t, s, "/analyze", req)
			case len(queries) + 1:
				code, hdr, body = post(t, s, "/check", req)
			case len(queries) + 2:
				// An /analyze hit writes stored bytes and renders
				// nothing, so render the shared Result directly.
				res := results[i%len(progs)]
				res.Report()
				res.Dump()
				return
			default:
				q := queries[k]
				q.AnalyzeRequest = req
				code, hdr, body = post(t, s, "/query", q)
			}
			if code != http.StatusOK || hdr.Get("X-Vsfs-Cache") != "hit" {
				t.Errorf("request %d: %d, cache %q: %s", i, code, hdr.Get("X-Vsfs-Cache"), body)
			}
		}(i)
	}
	wg.Wait()

	for i, req := range progs {
		_, hdr, _ := post(t, s, "/analyze", req)
		res, _ := s.cache.get(hdr.Get("X-Vsfs-Key"))
		if got := res.SetsDigest(); got != digests[i] {
			t.Fatalf("program %d: sets digest %x after concurrent hits, %x before", i, got, digests[i])
		}
	}
}

// TestLegacyParallelFieldIgnored: requests are decoded without
// DisallowUnknownFields, so an older client's "parallel" field is
// ignored. The same program with and without it must share one cache
// entry and get byte-identical bodies.
func TestLegacyParallelFieldIgnored(t *testing.T) {
	s := newTestServer(t, Config{})

	code1, hdr1, body1 := post(t, s, "/analyze", map[string]any{"source": smallC})
	code2, hdr2, body2 := post(t, s, "/analyze", map[string]any{"source": smallC, "parallel": 4})
	if code1 != http.StatusOK || code2 != http.StatusOK {
		t.Fatalf("status = %d, %d: %s", code1, code2, body2)
	}
	if got := hdr2.Get("X-Vsfs-Cache"); got != "hit" {
		t.Fatalf("request with \"parallel\": cache = %q, want hit", got)
	}
	if hdr1.Get("X-Vsfs-Key") != hdr2.Get("X-Vsfs-Key") {
		t.Fatalf("content keys differ: %q vs %q", hdr1.Get("X-Vsfs-Key"), hdr2.Get("X-Vsfs-Key"))
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("bodies differ:\n%s\n---\n%s", body1, body2)
	}
}

// TestSingleFlight: N concurrent identical requests must trigger
// exactly one solve.
func TestSingleFlight(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4})
	src := mediumIR(7)

	const n = 8
	var wg sync.WaitGroup
	codes := make([]int, n)
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _, bodies[i] = post(t, s, "/analyze", AnalyzeRequest{Source: src, Lang: "ir"})
		}(i)
	}
	wg.Wait()

	for i, c := range codes {
		if c != 200 {
			t.Fatalf("request %d: status %d: %s", i, c, bodies[i])
		}
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("request %d body differs from request 0", i)
		}
	}
	st := s.Stats()
	if st.SolvesOK != 1 {
		t.Fatalf("SolvesOK = %d, want exactly 1 (single-flight)", st.SolvesOK)
	}
	if st.Solves != 1 {
		t.Fatalf("Solves = %d, want exactly 1", st.Solves)
	}
}

// TestParallelDistinct: distinct programs must each get their own solve
// — deduplication must key on content, not collapse everything.
func TestParallelDistinct(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4})

	const distinct = 4
	srcs := make([]string, distinct)
	for i := range srcs {
		srcs[i] = mediumIR(int64(100 + i))
	}

	var wg sync.WaitGroup
	errs := make(chan error, distinct*2)
	for rep := 0; rep < 2; rep++ {
		for i := 0; i < distinct; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				code, _, body := post(t, s, "/analyze", AnalyzeRequest{Source: srcs[i], Lang: "ir"})
				if code != 200 {
					errs <- fmt.Errorf("src %d: status %d: %s", i, code, body)
				}
			}(i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.SolvesOK != distinct {
		t.Fatalf("SolvesOK = %d, want %d (one per distinct program)", st.SolvesOK, distinct)
	}
}

// TestPerRequestDeadline: a 1ms budget on a ~300ms program must come
// back promptly with 504, and the cancelled solve must not poison the
// cache — the follow-up full solve returns the correct result.
func TestPerRequestDeadline(t *testing.T) {
	s := newTestServer(t, Config{})
	src := slowIR(7)

	start := time.Now()
	code, _, body := post(t, s, "/analyze", AnalyzeRequest{Source: src, Lang: "ir", TimeoutMs: 1})
	elapsed := time.Since(start)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body: %s", code, body)
	}
	if !strings.Contains(string(body), "deadline") {
		t.Fatalf("error body does not mention the deadline: %s", body)
	}
	// "Promptly": far sooner than the full solve (~300ms uninstrumented,
	// seconds under -race). The worklist polls every 1024 pops, so 150ms
	// is a generous bound that still proves the solve was aborted.
	if elapsed > 150*time.Millisecond {
		t.Fatalf("cancelled request took %v, want well under the full solve time", elapsed)
	}

	// The aborted solve must not have cached anything.
	if st := s.Stats(); st.SolvesOK != 0 || st.CacheEntries != 0 {
		t.Fatalf("after cancellation: SolvesOK=%d CacheEntries=%d, want 0/0", st.SolvesOK, st.CacheEntries)
	}

	// Full solve afterwards: correct, cached, and identical to the
	// library's answer on the same input.
	code, hdr, body2 := post(t, s, "/analyze", AnalyzeRequest{Source: src, Lang: "ir"})
	if code != 200 {
		t.Fatalf("follow-up status = %d: %s", code, body2)
	}
	if hdr.Get("X-Vsfs-Cache") != "miss" {
		t.Fatalf("follow-up should be a miss, got %q", hdr.Get("X-Vsfs-Cache"))
	}
	want, err := vsfs.AnalyzeIR(src, vsfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ar AnalyzeResponse
	if err := json.Unmarshal(body2, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Dump != want.Dump() {
		t.Fatal("post-cancellation solve produced a dump differing from the library's")
	}
	if st := s.Stats(); st.SolvesCancelled < 1 {
		t.Fatalf("SolvesCancelled = %d, want >= 1", st.SolvesCancelled)
	}
}

// TestClientDisconnect: cancelling the request context (as net/http
// does when a client goes away) aborts the solve.
func TestClientDisconnect(t *testing.T) {
	s := newTestServer(t, Config{})
	src := slowIR(11)

	ctx, cancel := context.WithCancel(context.Background())
	data, _ := json.Marshal(AnalyzeRequest{Source: src, Lang: "ir"})
	req := httptest.NewRequest("POST", "/analyze", bytes.NewReader(data)).WithContext(ctx)
	rec := httptest.NewRecorder()
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", rec.Code)
	}
	if st := s.Stats(); st.SolvesOK != 0 {
		t.Fatalf("SolvesOK = %d, want 0", st.SolvesOK)
	}
}

// TestQueueShedding: with one worker and a one-slot queue, a burst of
// distinct solves must shed load with 503 instead of queueing unboundedly.
func TestQueueShedding(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	const burst = 8
	var wg sync.WaitGroup
	codes := make([]int, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _, _ = post(t, s, "/analyze",
				AnalyzeRequest{Source: mediumIR(int64(200 + i)), Lang: "ir"})
		}(i)
	}
	wg.Wait()

	ok, shed := 0, 0
	for _, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			shed++
		default:
			t.Fatalf("unexpected status %d", c)
		}
	}
	if ok == 0 {
		t.Fatal("no request succeeded")
	}
	if shed == 0 {
		t.Fatal("no request was shed; queue bound not enforced")
	}
	if st := s.Stats(); st.ShedRequests != int64(shed) {
		t.Fatalf("ShedRequests = %d, want %d", st.ShedRequests, shed)
	}
}

// TestGracefulShutdown: Close drains an in-flight solve rather than
// dropping it, and later work is refused with 503.
func TestGracefulShutdown(t *testing.T) {
	s := New(Config{Workers: 2})
	src := mediumIR(31)

	done := make(chan int, 1)
	go func() {
		code, _, _ := post(t, s, "/analyze", AnalyzeRequest{Source: src, Lang: "ir"})
		done <- code
	}()
	// Let the solve get onto a worker before shutting down.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Solves == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if code := <-done; code != 200 {
		t.Fatalf("in-flight request finished with %d, want 200 (drained)", code)
	}

	code, _, _ := post(t, s, "/analyze", AnalyzeRequest{Source: mediumIR(32), Lang: "ir"})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown solve = %d, want 503", code)
	}
}

// TestBadRequests: malformed inputs map to 4xx, not 5xx.
func TestBadRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		name string
		path string
		body any
		want int
	}{
		{"empty source", "/analyze", AnalyzeRequest{}, 400},
		{"bad mode", "/analyze", AnalyzeRequest{Source: smallC, Mode: "nope"}, 400},
		{"bad lang", "/analyze", AnalyzeRequest{Source: smallC, Lang: "rust"}, 400},
		{"compile error", "/analyze", AnalyzeRequest{Source: "int main( {"}, 422},
		{"bad kind", "/query", QueryRequest{AnalyzeRequest: AnalyzeRequest{Source: smallC}, Kind: "nope"}, 400},
		{"alias missing var", "/query", QueryRequest{AnalyzeRequest: AnalyzeRequest{Source: smallC}, Kind: "alias"}, 400},
	}
	for _, tc := range cases {
		code, _, body := post(t, s, tc.path, tc.body)
		if code != tc.want {
			t.Errorf("%s: status = %d, want %d (body %s)", tc.name, code, tc.want, body)
		}
	}
}

// TestBodyTooLarge: a body one byte over maxBodyBytes is refused with
// 413 on every endpoint that decodes one, before any parse, and the
// server still answers a normal request afterwards.
func TestBodyTooLarge(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	const prefix, suffix = `{"source":"`, `"}`
	big := []byte(prefix + strings.Repeat("a", maxBodyBytes+1-len(prefix)-len(suffix)) + suffix)
	for _, path := range []string{"/analyze", "/check", "/query"} {
		req := httptest.NewRequest("POST", path, bytes.NewReader(big))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a %d-byte body = %d, want 413 (body %.200s)", path, len(big), rec.Code, rec.Body.Bytes())
		}
	}
	if code, _, body := post(t, s, "/analyze", AnalyzeRequest{Source: smallC}); code != http.StatusOK {
		t.Fatalf("normal /analyze after 413s = %d, want 200 (body %s)", code, body)
	}
}

// TestHammerMixed is the -race workout: parallel identical and distinct
// requests, queries, and stats reads all at once.
func TestHammerMixed(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4, CacheEntries: 8})
	srcs := []string{smallC}
	for i := 0; i < 3; i++ {
		srcs = append(srcs, sizedIR(10, 50, int64(300+i)))
	}
	langs := []string{"c", "ir", "ir", "ir"}

	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Decouple source choice from action choice so every program
			// sees every action across the 32 iterations.
			j := (i / 4) % len(srcs)
			switch i % 4 {
			case 0, 1:
				code, _, body := post(t, s, "/analyze", AnalyzeRequest{Source: srcs[j], Lang: langs[j]})
				if code != 200 {
					t.Errorf("analyze %d: %d %s", i, code, body)
				}
			case 2:
				code, _, body := post(t, s, "/query", QueryRequest{
					AnalyzeRequest: AnalyzeRequest{Source: srcs[j], Lang: langs[j]},
					Kind:           "callgraph",
				})
				if code != 200 {
					t.Errorf("query %d: %d %s", i, code, body)
				}
			case 3:
				if code, _ := get(t, s, "/stats"); code != 200 {
					t.Errorf("stats %d: %d", i, code)
				}
			}
		}(i)
	}
	wg.Wait()

	st := s.Stats()
	if st.SolvesOK != int64(len(srcs)) {
		t.Fatalf("SolvesOK = %d, want %d (each distinct program solved once)", st.SolvesOK, len(srcs))
	}
}

// TestLRUEviction: the cache keeps at most CacheEntries solved programs.
func TestLRUEviction(t *testing.T) {
	s := newTestServer(t, Config{CacheEntries: 2})
	for i := 0; i < 3; i++ {
		src := fmt.Sprintf("int main() { int a%d; int *p; p = &a%d; return 0; }", i, i)
		if code, _, body := post(t, s, "/analyze", AnalyzeRequest{Source: src}); code != 200 {
			t.Fatalf("analyze %d: %d %s", i, code, body)
		}
	}
	if st := s.Stats(); st.CacheEntries != 2 {
		t.Fatalf("CacheEntries = %d, want 2 (LRU bound)", st.CacheEntries)
	}
	// Oldest entry was evicted: re-requesting it is a miss and re-solve.
	src0 := "int main() { int a0; int *p; p = &a0; return 0; }"
	_, hdr, _ := post(t, s, "/analyze", AnalyzeRequest{Source: src0})
	if hdr.Get("X-Vsfs-Cache") != "miss" {
		t.Fatalf("evicted entry came back as %q, want miss", hdr.Get("X-Vsfs-Cache"))
	}
}

// uafC frees a heap cell and then stores through the stale pointer at
// line 6 column 3.
const uafC = `int main() {
  int *p;
  int x;
  p = malloc();
  free(p);
  *p = 2;
  return 0;
}`

func TestCheckEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})

	body := map[string]any{"source": uafC, "filename": "uaf.c"}
	code, hdr, resp := post(t, s, "/check", body)
	if code != http.StatusOK {
		t.Fatalf("POST /check = %d: %s", code, resp)
	}
	var cr CheckResponse
	if err := json.Unmarshal(resp, &cr); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if cr.Mode != "vsfs" || cr.Key == "" {
		t.Errorf("mode/key = %q/%q", cr.Mode, cr.Key)
	}
	var uaf int
	for _, f := range cr.Findings {
		if f.Kind == "use-after-free" {
			uaf++
			if f.File != "uaf.c" || f.Line != 6 || f.Col != 3 {
				t.Errorf("position = %s:%d:%d, want uaf.c:6:3", f.File, f.Line, f.Col)
			}
			if f.Fingerprint == "" {
				t.Error("missing fingerprint")
			}
		}
	}
	if uaf == 0 {
		t.Fatalf("no use-after-free finding in %s", resp)
	}

	// The second identical request must be a cache hit for the solve —
	// findings are recomputed but the result key is stable.
	_, hdr2, resp2 := post(t, s, "/check", body)
	if hdr.Get("X-VSFS-Cache") != "miss" || hdr2.Get("X-VSFS-Cache") != "hit" {
		t.Errorf("cache headers = %q then %q", hdr.Get("X-VSFS-Cache"), hdr2.Get("X-VSFS-Cache"))
	}
	if !bytes.Equal(resp, resp2) {
		t.Errorf("cached check differs:\n%s\nvs\n%s", resp, resp2)
	}

	// Findings metric materialised and counted (2 requests x findings).
	mcode, mbody := get(t, s, "/metrics")
	if mcode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", mcode)
	}
	if !strings.Contains(string(mbody), `vsfs_findings_total{kind="use-after-free"} `+fmt.Sprint(2*uaf)) {
		t.Errorf("metrics missing findings counter:\n%s", mbody)
	}
}

func TestCheckEndpointSARIF(t *testing.T) {
	s := newTestServer(t, Config{})

	code, hdr, resp := post(t, s, "/check",
		map[string]any{"source": uafC, "filename": "uaf.c", "format": "sarif"})
	if code != http.StatusOK {
		t.Fatalf("POST /check = %d: %s", code, resp)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/sarif+json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var doc map[string]any
	if err := json.Unmarshal(resp, &doc); err != nil {
		t.Fatalf("not JSON: %v", err)
	}
	if doc["version"] != "2.1.0" {
		t.Errorf("version = %v", doc["version"])
	}
	run := doc["runs"].([]any)[0].(map[string]any)
	results := run["results"].([]any)
	if len(results) == 0 {
		t.Fatal("no SARIF results")
	}
	found := false
	for _, r := range results {
		if r.(map[string]any)["ruleId"] == "use-after-free" {
			found = true
		}
	}
	if !found {
		t.Errorf("no use-after-free result: %s", resp)
	}
}

func TestCheckEndpointSuppression(t *testing.T) {
	s := newTestServer(t, Config{})

	suppressed := strings.Replace(uafC, "*p = 2;", "*p = 2; // vsfs:ignore(use-after-free)", 1)
	code, _, resp := post(t, s, "/check", map[string]any{"source": suppressed})
	if code != http.StatusOK {
		t.Fatalf("POST /check = %d: %s", code, resp)
	}
	var cr CheckResponse
	if err := json.Unmarshal(resp, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Suppressed == 0 {
		t.Errorf("suppressed = 0, want > 0: %s", resp)
	}
	for _, f := range cr.Findings {
		if f.Kind == "use-after-free" && f.Line == 6 {
			t.Errorf("suppressed finding still reported: %+v", f)
		}
	}
}

func TestCheckEndpointBadRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	for name, body := range map[string]any{
		"bad format":   map[string]any{"source": uafC, "format": "xml"},
		"bad severity": map[string]any{"source": uafC, "severities": map[string]string{"null-deref": "fatal"}},
		"empty source": map[string]any{"source": ""},
	} {
		code, _, resp := post(t, s, "/check", body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: code = %d (%s), want 400", name, code, resp)
		}
	}
}

func TestCheckEndpointSeverityOverride(t *testing.T) {
	s := newTestServer(t, Config{})
	code, _, resp := post(t, s, "/check", map[string]any{
		"source":     uafC,
		"severities": map[string]string{"use-after-free": "note"},
	})
	if code != http.StatusOK {
		t.Fatalf("POST /check = %d: %s", code, resp)
	}
	var cr CheckResponse
	if err := json.Unmarshal(resp, &cr); err != nil {
		t.Fatal(err)
	}
	for _, f := range cr.Findings {
		if f.Kind == "use-after-free" && f.Severity != "note" {
			t.Errorf("severity = %s, want note", f.Severity)
		}
	}
}
