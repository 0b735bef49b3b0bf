package oracle

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"vsfs/internal/ir"
	"vsfs/internal/server"
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
//
// Responses are deterministic by design (sorted keys everywhere), so
// byte equality is the correct notion of "same result".
func CheckServerIdentity(prog *ir.Program) []Violation {
	src := prog.String()
	var out []Violation
	failf := func(invariant, format string, args ...any) {
		out = append(out, Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
	}

	send := func(ts *httptest.Server, path, body string) (int, string, []byte, error) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			return 0, "", nil, err
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			return 0, "", nil, err
		}
		return resp.StatusCode, resp.Header.Get("X-Vsfs-Cache"), buf.Bytes(), nil
	}

	post := func(ts *httptest.Server, mode string) (int, string, []byte, error) {
		return send(ts, "/analyze", fmt.Sprintf(`{"source": %q, "lang": "ir", "mode": %q}`, src, mode))
	}

	closeAll := func(srv *server.Server, ts *httptest.Server) {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Close(ctx)
	}

	// Per-mode cold solve, then a cache hit — both modes on ONE server,
	// so a cache key that ignored the mode would cross-contaminate.
	srv := server.New(server.Config{Workers: 2})
	ts := httptest.NewServer(srv)
	coldByMode, warmByMode := map[string][]byte{}, map[string][]byte{}
	for _, mode := range []string{"vsfs", "cfgfree"} {
		coldStatus, coldCache, coldBody, err := post(ts, mode)
		if err != nil {
			closeAll(srv, ts)
			failf("server-cache-identity", "%s: cold request failed: %v", mode, err)
			return out
		}
		if coldStatus != http.StatusOK {
			closeAll(srv, ts)
			failf("server-cache-identity", "%s: cold solve returned %d: %s", mode, coldStatus, coldBody)
			return out
		}
		if coldCache != "miss" {
			failf("server-cache-identity", "%s: cold solve marked %q, want miss", mode, coldCache)
		}
		coldByMode[mode] = coldBody
		warmStatus, warmCache, warmBody, err := post(ts, mode)
		if err != nil || warmStatus != http.StatusOK {
			closeAll(srv, ts)
			failf("server-cache-identity", "%s: warm request failed: status %d, err %v", mode, warmStatus, err)
			return out
		}
		if warmCache != "hit" {
			failf("server-cache-identity", "%s: repeat request marked %q, want hit", mode, warmCache)
		}
		if !bytes.Equal(coldBody, warmBody) {
			failf("server-cache-identity", "%s: cache hit body differs from the miss that populated it at %s",
				mode, jsonDiffPath(coldBody, warmBody))
		}
		warmByMode[mode] = warmBody
	}
	closeAll(srv, ts)
	srvFresh := server.New(server.Config{Workers: 2})
	tsFresh := httptest.NewServer(srvFresh)
	for _, mode := range []string{"vsfs", "cfgfree"} {
		status, _, fresh, err := post(tsFresh, mode)
		if err != nil || status != http.StatusOK {
			failf("server-cache-identity", "%s: cold request on a second server failed: status %d, err %v", mode, status, err)
			continue
		}
		if !bytes.Equal(fresh, warmByMode[mode]) {
			failf("server-cache-identity", "%s: cache hit body differs from a cold solve on a second server at %s",
				mode, jsonDiffPath(fresh, warmByMode[mode]))
		}
	}
	closeAll(srvFresh, tsFresh)
	if bytes.Equal(coldByMode["vsfs"], coldByMode["cfgfree"]) {
		failf("server-mode-cache-separation",
			"vsfs and cfgfree responses are byte-identical; the mode is not reaching the solve or the cache key")
	}

	// Concurrent identical requests against a fresh (cold) server: the
	// single-flight layer must hand every waiter the same result, and
	// that result must match the independent cold solve above.
	const concurrent = 8
	srv2 := server.New(server.Config{Workers: 2})
	ts2 := httptest.NewServer(srv2)
	bodies := make([][]byte, concurrent)
	errs := make([]error, concurrent)
	statuses := make([]int, concurrent)
	var wg sync.WaitGroup
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], _, bodies[i], errs[i] = post(ts2, "vsfs")
		}(i)
	}
	wg.Wait()
	closeAll(srv2, ts2)
	for i := 0; i < concurrent; i++ {
		if errs[i] != nil || statuses[i] != http.StatusOK {
			failf("server-flight-identity", "concurrent request %d failed: status %d, err %v",
				i, statuses[i], errs[i])
			return out
		}
		if !bytes.Equal(bodies[i], coldByMode["vsfs"]) {
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
		srvA, srvB := server.New(server.Config{Workers: 2}), server.New(server.Config{Workers: 2})
		tsA, tsB := httptest.NewServer(srvA), httptest.NewServer(srvB)
		firstStatus, _, first, errA := send(tsA, ep.path, ep.body)
		otherStatus, _, other, errB := send(tsB, ep.path, ep.body)
		repeatStatus, _, repeat, errR := send(tsA, ep.path, ep.body)
		closeAll(srvA, tsA)
		closeAll(srvB, tsB)
		if err := errors.Join(errA, errB, errR); err != nil {
			failf("server-endpoint-identity", "%s: request failed: %v", ep.path, err)
			continue
		}
		if firstStatus != http.StatusOK {
			failf("server-endpoint-identity", "%s: cold solve returned %d: %.200s", ep.path, firstStatus, first)
			continue
		}
		if otherStatus != firstStatus || !bytes.Equal(first, other) {
			failf("server-endpoint-identity", "%s: two fresh servers disagree: status %d vs %d, body at %s",
				ep.path, firstStatus, otherStatus, jsonDiffPath(first, other))
		}
		if repeatStatus != firstStatus || !bytes.Equal(first, repeat) {
			failf("server-endpoint-identity", "%s: repeat request differs from the first: status %d vs %d, body at %s",
				ep.path, firstStatus, repeatStatus, jsonDiffPath(first, repeat))
		}
	}
	return out
}
