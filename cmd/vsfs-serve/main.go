// Command vsfs-serve runs the pointer-analysis service: a long-running
// HTTP/JSON daemon that solves mini-C or textual-IR programs on demand
// and answers points-to, alias, call-graph, witness, and checker
// queries, with a content-addressed result cache, single-flight
// deduplication, a bounded worker pool, and per-request cancellation.
//
//	vsfs-serve -addr :8080
//
//	curl localhost:8080/healthz
//	curl localhost:8080/stats
//	curl localhost:8080/metrics
//	curl -d '{"source":"int main(){int a; int *p; p = &a; return 0;}"}' localhost:8080/analyze
//	curl -d '{"source":"...","kind":"points-to","func":"main","var":"p"}' localhost:8080/query
//
// Telemetry: -log-format selects the structured access-log format
// (text, json, or off), and -pprof exposes the Go runtime profiles
// under /debug/pprof/.
//
// Resource governance: -max-steps and -max-mem bound the server-wide
// solve budget (split evenly across workers); a solve that blows its
// share degrades to the flow-insensitive result instead of failing.
// A request's answer depends only on its own input and budget: a
// program that fails is answered the same way each time it is sent.
//
// The process exits cleanly on SIGINT/SIGTERM, draining in-flight
// solves for up to -drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vsfs/internal/obs"
	"vsfs/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], context.Background(), nil, os.Stdout, os.Stderr))
}

// run is the testable entry point. If ready is non-nil it receives the
// bound address once the listener is up. The server stops when ctx is
// done or a termination signal arrives.
func run(args []string, ctx context.Context, ready chan<- string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vsfs-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "max concurrent solves (0 = GOMAXPROCS)")
	queue := fs.Int("queue", server.DefaultQueueDepth, "max solves waiting for a worker; beyond this requests get 503")
	timeout := fs.Duration("timeout", server.DefaultSolveTimeout, "per-solve wall-clock budget (<=0 disables)")
	cacheEntries := fs.Int("cache", server.DefaultCacheEntries, "result-cache capacity (solved programs)")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
	logFormat := fs.String("log-format", "text", `structured access-log format: "text", "json", or "off"`)
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof profiles under /debug/pprof/")
	maxSteps := fs.Int64("max-steps", 0, "server-wide worklist-step budget, split across workers; over-budget solves degrade to Andersen (0 = no limit)")
	maxMem := fs.Int64("max-mem", 0, "server-wide memory budget in bytes for the storage a solve's phases grow (points-to sets, memory SSA, SVFG overflow, meld labels), split across workers (0 = no limit)")
	ledgerPath := fs.String("ledger", "", "append a run record per solve to this JSONL ledger, served at GET /runs")
	ledgerMax := fs.Int64("ledger-max-bytes", obs.DefaultLedgerMaxBytes, "rotate the ledger past this many bytes (one .1 generation kept)")
	traceDir := fs.String("trace-dir", "", "write one Chrome trace_event file per solve into this directory, tagged with the request ID")
	attr := fs.Bool("attr", false, "attribute solver cost to abstract objects on every solve (hot-object tables in reports, vsfs_attr_* metrics)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: vsfs-serve [flags]")
		fs.PrintDefaults()
		return 2
	}
	logger, err := obs.NewLogger(stderr, *logFormat, slog.LevelInfo)
	if err != nil {
		fmt.Fprintln(stderr, "vsfs-serve:", err)
		return 2
	}

	var ledger *obs.Ledger
	if *ledgerPath != "" {
		ledger, err = obs.OpenLedger(*ledgerPath, *ledgerMax)
		if err != nil {
			fmt.Fprintln(stderr, "vsfs-serve:", err)
			return 1
		}
		defer ledger.Close()
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "vsfs-serve:", err)
			return 1
		}
	}

	solveTimeout := *timeout
	if solveTimeout <= 0 {
		solveTimeout = -1 // Config: negative disables the budget
	}
	svc := server.New(server.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		SolveTimeout: solveTimeout,
		CacheEntries: *cacheEntries,
		StepBudget:   *maxSteps,
		MemBudget:    *maxMem,
		Logger:       logger,
		EnablePprof:  *pprofOn,
		Ledger:       ledger,
		TraceDir:     *traceDir,
		Attribution:  *attr,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "vsfs-serve:", err)
		return 1
	}
	httpSrv := &http.Server{Handler: svc}

	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	fmt.Fprintf(stdout, "vsfs-serve: vsfs %s %s\n", obs.Version, obs.GoVersion())
	fmt.Fprintf(stdout, "vsfs-serve: listening on %s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case <-ctx.Done():
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, "vsfs-serve:", err)
			return 1
		}
	}

	// Graceful shutdown: stop accepting, then drain in-flight solves.
	fmt.Fprintln(stdout, "vsfs-serve: shutting down")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(stderr, "vsfs-serve: shutdown:", err)
	}
	if err := svc.Close(drainCtx); err != nil {
		fmt.Fprintln(stderr, "vsfs-serve: drain:", err)
		return 1
	}
	return 0
}
