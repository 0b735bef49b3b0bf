package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestServeEndToEnd boots the daemon on an ephemeral port, exercises
// every endpoint over real HTTP, and shuts it down via context
// cancellation (the same path a SIGTERM takes).
func TestServeEndToEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ready := make(chan string, 1)
	var out, errb strings.Builder
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-addr", "127.0.0.1:0"}, ctx, ready, &out, &errb)
	}()

	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("server did not become ready")
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "ok") {
		t.Fatalf("/healthz: %d %s", resp.StatusCode, body)
	}

	src := `int main() { int a; int *p; p = &a; return 0; }`
	payload := fmt.Sprintf(`{"source":%q}`, src)
	resp, err = http.Post(base+"/analyze", "application/json", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/analyze: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Vsfs-Cache"); got != "miss" {
		t.Fatalf("first analyze cache header = %q, want miss", got)
	}

	qpayload := fmt.Sprintf(`{"source":%q,"kind":"points-to","func":"main","var":"p"}`, src)
	resp, err = http.Post(base+"/query", "application/json", strings.NewReader(qpayload))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/query: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Vsfs-Cache"); got != "hit" {
		t.Fatalf("query after analyze cache header = %q, want hit", got)
	}
	var q struct {
		PointsTo []string `json:"pointsTo"`
	}
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	if len(q.PointsTo) != 1 || q.PointsTo[0] != "main.a" {
		t.Fatalf("points-to(main.p) = %v, want [main.a]", q.PointsTo)
	}

	resp, err = http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"solvesOK": 1`) {
		t.Fatalf("/stats: %d %s", resp.StatusCode, body)
	}

	// /metrics is mounted by default and renders the same counters in
	// Prometheus text format; pprof stays unmounted without -pprof.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "vsfs_solve_seconds_count 1") {
		t.Fatalf("/metrics: %d %s", resp.StatusCode, body)
	}
	resp, err = http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("/debug/pprof/ without -pprof = %d, want 404", resp.StatusCode)
	}

	cancel()
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit = %d; stderr: %s", code, errb.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down")
	}
	if !strings.Contains(out.String(), "shutting down") {
		t.Fatalf("missing shutdown log; stdout: %s", out.String())
	}
}

// TestServeGovernanceFlags boots with the resource-governance knobs
// set and verifies the daemon still solves and exports the governance
// counters.
func TestServeGovernanceFlags(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ready := make(chan string, 1)
	var out, errb strings.Builder
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-addr", "127.0.0.1:0",
			"-max-steps", "1000000000", "-max-mem", "1000000000"},
			ctx, ready, &out, &errb)
	}()

	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("server did not become ready")
	}
	base := "http://" + addr

	src := `int main() { int a; int *p; p = &a; return 0; }`
	resp, err := http.Post(base+"/analyze", "application/json",
		strings.NewReader(fmt.Sprintf(`{"source":%q}`, src)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/analyze under budgets: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Vsfs-Degraded") != "" {
		t.Fatal("generous budget degraded the solve")
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"vsfs_shed_requests_total 0",
		"vsfs_degraded_results_total 0",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	cancel()
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit = %d; stderr: %s", code, errb.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down")
	}
}

func TestServeBadFlags(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-bogus"}, context.Background(), nil, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if code := run([]string{"extra-arg"}, context.Background(), nil, &out, &errb); code != 2 {
		t.Fatalf("positional arg: exit = %d, want 2", code)
	}
	if code := run([]string{"-log-format", "xml"}, context.Background(), nil, &out, &errb); code != 2 {
		t.Fatalf("bad log format: exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown log format") {
		t.Fatalf("missing log-format error; stderr: %s", errb.String())
	}
}

// TestServeTelemetryFlags boots with the observability knobs flipped:
// JSON access logs and pprof on; /metrics is always mounted.
func TestServeTelemetryFlags(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ready := make(chan string, 1)
	var out, errb strings.Builder
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-addr", "127.0.0.1:0", "-log-format", "json", "-pprof"},
			ctx, ready, &out, &errb)
	}()

	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("server did not become ready")
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics = %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/debug/pprof/ with -pprof = %d, want 200", resp.StatusCode)
	}

	cancel()
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit = %d; stderr: %s", code, errb.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down")
	}
	if !strings.Contains(errb.String(), `"path":"/metrics"`) {
		t.Fatalf("JSON access log missing; stderr: %s", errb.String())
	}
}
