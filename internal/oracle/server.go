package oracle

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"vsfs"
	"vsfs/internal/guard"
	"vsfs/internal/ir"
	"vsfs/internal/server"
	"vsfs/internal/workload"
)

// CheckServerIdentity exercises the daemon's cache and single-flight
// layers against the cold-solve result for prog:
//
//	server-cache-identity:        per mode (vsfs and cfgfree), a cache
//	                              hit's body is byte-identical to the
//	                              miss that populated it and to a cold
//	                              solve on a second fresh server, and
//	                              marked as a hit. A hit writes the
//	                              bytes its entry's first render
//	                              stored, so only the second server's
//	                              cold body checks them against an
//	                              independent render.
//	server-mode-cache-separation: the two modes' responses differ (the
//	                              mode field at minimum), so a shared
//	                              cache entry would be a cache-key bug.
//	server-flight-identity:       N concurrent identical requests
//	                              against a cold server all return
//	                              bodies byte-identical to each other
//	                              and to the cold solve.
//	server-endpoint-identity:     for /query (kind callgraph) and
//	                              /check, cold solves on two fresh
//	                              servers give the same status and
//	                              body, and a repeat request on one of
//	                              them matches its first answer.
//	governance-isolation:         under a per-solve memory budget 10%
//	                              above the VSFS solve's solo spend,
//	                              each mode's status, degraded flag and
//	                              body are the same solved one at a
//	                              time alone as all at once beside a
//	                              heavy unbudgeted neighbour.
//
// Responses are deterministic by design (sorted keys everywhere), so
// byte equality is the correct notion of "same result".
func CheckServerIdentity(prog *ir.Program) []Violation {
	src := prog.String()
	var out []Violation
	failf := func(invariant, format string, args ...any) {
		out = append(out, Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
	}
	modes := []string{"vsfs", "cfgfree"}

	// Per-mode cold solve, then a cache hit — both modes on ONE server,
	// so a cache key that ignored the mode would cross-contaminate.
	srv, ts := startServer(server.Config{Workers: 2})
	hits := map[string][]byte{}
	for _, mode := range modes {
		cold := ask(ts, "/analyze", analyzeBody(src, mode))
		warm := ask(ts, "/analyze", analyzeBody(src, mode))
		if err := errors.Join(cold.err, warm.err); err != nil || cold.status != http.StatusOK || warm.status != http.StatusOK {
			closeAll(srv, ts)
			failf("server-cache-identity", "%s: solves returned %d then %d, err %v: %.200s",
				mode, cold.status, warm.status, err, cold.body)
			return out
		}
		if cold.cache != "miss" || warm.cache != "hit" {
			failf("server-cache-identity", "%s: requests marked %q then %q, want miss then hit", mode, cold.cache, warm.cache)
		}
		if !bytes.Equal(cold.body, warm.body) {
			failf("server-cache-identity", "%s: cache hit body differs from the miss that populated it at %s",
				mode, jsonDiffPath(cold.body, warm.body))
		}
		hits[mode] = warm.body
	}
	closeAll(srv, ts)
	srv, ts = startServer(server.Config{Workers: 2})
	for _, mode := range modes {
		fresh := ask(ts, "/analyze", analyzeBody(src, mode))
		if fresh.err != nil || fresh.status != http.StatusOK {
			failf("server-cache-identity", "%s: cold request on a second server failed: status %d, err %v",
				mode, fresh.status, fresh.err)
		} else if !bytes.Equal(fresh.body, hits[mode]) {
			failf("server-cache-identity", "%s: cache hit body differs from a cold solve on a second server at %s",
				mode, jsonDiffPath(fresh.body, hits[mode]))
		}
	}
	closeAll(srv, ts)
	if bytes.Equal(hits["vsfs"], hits["cfgfree"]) {
		failf("server-mode-cache-separation",
			"vsfs and cfgfree responses are byte-identical; the mode is not reaching the solve or the cache key")
	}

	// Concurrent identical requests against a fresh (cold) server: the
	// single-flight layer must hand every waiter the same result, and
	// that result must match the independent cold solve above.
	srv, ts = startServer(server.Config{Workers: 2})
	same := make([]string, 8)
	for i := range same {
		same[i] = analyzeBody(src, "vsfs")
	}
	flight := askAll(ts, same)
	closeAll(srv, ts)
	for i, a := range flight {
		if a.err != nil || a.status != http.StatusOK {
			failf("server-flight-identity", "concurrent request %d failed: status %d, err %v", i, a.status, a.err)
			return out
		}
		if !bytes.Equal(a.body, hits["vsfs"]) {
			failf("server-flight-identity", "concurrent request %d body differs from cold solve", i)
			return out
		}
	}

	// The answer endpoints other than /analyze: each gets two fresh
	// servers, so both first requests are cold solves.
	endpoints := []struct{ path, body string }{
		{"/query", fmt.Sprintf(`{"source": %q, "lang": "ir", "kind": "callgraph"}`, src)},
		{"/check", fmt.Sprintf(`{"source": %q, "lang": "ir"}`, src)},
	}
	for _, ep := range endpoints {
		srvA, tsA := startServer(server.Config{Workers: 2})
		srvB, tsB := startServer(server.Config{Workers: 2})
		first, other, repeat := ask(tsA, ep.path, ep.body), ask(tsB, ep.path, ep.body), ask(tsA, ep.path, ep.body)
		closeAll(srvA, tsA)
		closeAll(srvB, tsB)
		if err := errors.Join(first.err, other.err, repeat.err); err != nil {
			failf("server-endpoint-identity", "%s: request failed: %v", ep.path, err)
			continue
		}
		if first.status != http.StatusOK {
			failf("server-endpoint-identity", "%s: cold solve returned %d: %.200s", ep.path, first.status, first.body)
			continue
		}
		if other.status != first.status || !bytes.Equal(first.body, other.body) {
			failf("server-endpoint-identity", "%s: two fresh servers disagree: status %d vs %d, body at %s",
				ep.path, first.status, other.status, jsonDiffPath(first.body, other.body))
		}
		if repeat.status != first.status || !bytes.Equal(first.body, repeat.body) {
			failf("server-endpoint-identity", "%s: repeat request differs from the first: status %d vs %d, body at %s",
				ep.path, first.status, repeat.status, jsonDiffPath(first.body, repeat.body))
		}
	}
	checkGovernanceIsolation(src, failf)
	return out
}

// checkGovernanceIsolation checks governance-isolation for IR source
// src (see CheckServerIdentity), reporting through failf.
func checkGovernanceIsolation(src string, failf func(invariant, format string, args ...any)) {
	spend := guard.NewBudget(0, math.MaxInt64, 0)
	if _, err := analyzeIR(src, vsfs.VSFS, nil, spend); err != nil {
		failf("governance-isolation", "solo VSFS solve failed: %v", err)
		return
	}
	modes := []string{"vsfs", "sfs", "cfgfree", "andersen"}
	perSolve := spend.BytesUsed() + spend.BytesUsed()/10 + 1
	cfg := server.Config{Workers: len(modes), MemBudget: perSolve * int64(len(modes))}
	bodies := make([]string, len(modes))
	for i, mode := range modes {
		bodies[i] = analyzeBody(src, mode)
	}

	srv, ts := startServer(cfg)
	solo := make([]answer, len(bodies))
	for i, body := range bodies {
		solo[i] = ask(ts, "/analyze", body)
	}
	closeAll(srv, ts)

	// The neighbour solves until every request is answered, so each
	// request's solve overlaps its growth.
	heavy := workload.ProfileByName("du").Build().String()
	ctx, stop := context.WithCancel(context.Background())
	neighbour := make(chan struct{})
	go func() {
		defer close(neighbour)
		for ctx.Err() == nil {
			_, _ = vsfs.AnalyzeContext(ctx, heavy, vsfs.Options{Input: vsfs.InputIR}) // only its growth matters
		}
	}()
	srv, ts = startServer(cfg)
	busy := askAll(ts, bodies)
	stop()
	<-neighbour
	closeAll(srv, ts)

	for i, mode := range modes {
		a, b := solo[i], busy[i]
		switch {
		case a.err != nil || b.err != nil:
			failf("governance-isolation", "%s: request failed: solo %v, beside the neighbour %v", mode, a.err, b.err)
		case a.status != b.status || a.degraded != b.degraded:
			failf("governance-isolation", "%s: status %d, degraded %q beside the neighbour; %d, %q solo (budget %d bytes)",
				mode, b.status, b.degraded, a.status, a.degraded, perSolve)
		case !bytes.Equal(a.body, b.body):
			failf("governance-isolation", "%s: body beside the neighbour differs from the solo one at %s",
				mode, jsonDiffPath(a.body, b.body))
		}
	}
}

// answer is one HTTP response as the invariants compare it.
type answer struct {
	status          int
	cache, degraded string // the X-Vsfs-Cache and X-Vsfs-Degraded headers
	body            []byte
	err             error
}

// ask posts body to path and reads the whole response.
func ask(ts *httptest.Server, path, body string) answer {
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		return answer{err: err}
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return answer{err: err}
	}
	return answer{resp.StatusCode, resp.Header.Get("X-Vsfs-Cache"), resp.Header.Get("X-Vsfs-Degraded"), buf.Bytes(), nil}
}

// askAll posts every body to /analyze at once.
func askAll(ts *httptest.Server, bodies []string) []answer {
	out := make([]answer, len(bodies))
	var wg sync.WaitGroup
	for i, body := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = ask(ts, "/analyze", body)
		}()
	}
	wg.Wait()
	return out
}

// analyzeBody is an /analyze request for IR source src in mode.
func analyzeBody(src, mode string) string {
	return fmt.Sprintf(`{"source": %q, "lang": "ir", "mode": %q}`, src, mode)
}

// startServer starts a daemon with cfg behind a test server.
func startServer(cfg server.Config) (*server.Server, *httptest.Server) {
	srv := server.New(cfg)
	return srv, httptest.NewServer(srv)
}

// closeAll shuts down a test server and the daemon behind it.
func closeAll(srv *server.Server, ts *httptest.Server) {
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Close(ctx)
}
