package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// daemon is one running vsfs-serve process.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	stderr bytes.Buffer // read only after the process has exited
	done   chan struct{}
	once   sync.Once
}

// addrWriter receives the daemon's stdout and reports the address from
// its "listening on" line.
type addrWriter struct {
	buf  []byte
	addr chan<- string
}

func (w *addrWriter) Write(p []byte) (int, error) {
	if w.addr == nil {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			break
		}
		line := string(w.buf[:i])
		w.buf = w.buf[i+1:]
		if a, ok := strings.CutPrefix(line, "vsfs-serve: listening on "); ok {
			w.addr <- a
			w.addr, w.buf = nil, nil
			break
		}
	}
	return len(p), nil
}

// startDaemon starts vsfs-serve on a free local port and waits until it
// reports its address and answers /readyz.
func (e *env) startDaemon(client *http.Client) (*daemon, error) {
	addr := make(chan string, 1)
	d := &daemon{done: make(chan struct{})}
	d.cmd = exec.Command(e.serve, "-addr", "127.0.0.1:0",
		"-workers", strconv.Itoa(serveWorkers), "-cache", strconv.Itoa(serveCache), "-log-format", "off")
	d.cmd.Stdout = &addrWriter{addr: addr}
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		_ = d.cmd.Wait() // the exit status is read from ProcessState
		close(d.done)
	}()
	select {
	case a := <-addr:
		d.url = "http://" + a
	case <-d.done:
		return nil, fmt.Errorf("vsfs-serve exited before listening: %s", strings.TrimSpace(d.stderr.String()))
	case <-time.After(requestTimeout):
		d.stop()
		return nil, errors.New("vsfs-serve did not start listening")
	}
	resp, err := client.Get(d.url + "/readyz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("/readyz answered %d", resp.StatusCode)
		}
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop asks the daemon to drain and exit, kills it if it has not exited
// within the request timeout, and waits for it. Safe to call twice.
func (d *daemon) stop() {
	d.once.Do(func() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
		select {
		case <-d.done:
		case <-time.After(requestTimeout):
			_ = d.cmd.Process.Kill()
			<-d.done
		}
	})
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: serveClients,
			MaxConnsPerHost:     serveClients,
			DisableCompression:  true,
		},
	}
}

// post sends one POST /analyze and reads the whole body.
func post(client *http.Client, url string, body []byte) (data []byte, hit bool, err error) {
	resp, err := client.Post(url+"/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	data, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, false, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, false, fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, data)
	}
	return data, resp.Header.Get("X-Vsfs-Cache") == "hit", nil
}

// serveSetup is what one serve set-up produces.
type serveSetup struct {
	pool   []program
	bodies [][]byte
	v      *verifier
	d      *daemon
}

// setupServe generates the pool and its request bodies, loads the
// goldens, starts the daemon and sends one warm-up request for a program
// outside the pool, so the cache holds nothing the timed phase asks for.
func (e *env) setupServe(seed int64, client *http.Client) (serveSetup, error) {
	var s serveSetup
	pool, err := servePool(seed)
	if err != nil {
		return s, err
	}
	s.pool = pool
	for _, p := range pool {
		b, err := analyzeBody(p)
		if err != nil {
			return s, err
		}
		s.bodies = append(s.bodies, b)
	}
	warm, err := generate("warmup", seed)
	if err != nil {
		return s, err
	}
	warmBody, err := analyzeBody(warm)
	if err != nil {
		return s, err
	}
	g, err := loadGoldens(e.root)
	if err != nil {
		return s, err
	}
	s.v = newVerifier(g, seed)
	if s.d, err = e.startDaemon(client); err != nil {
		return s, err
	}
	data, _, err := post(client, s.d.url, warmBody)
	if err == nil {
		err = s.v.check(warm.name, data, true)
	}
	if err != nil {
		s.d.stop()
		return s, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

// daemonStats is the slice of GET /stats the benchmark reports.
type daemonStats struct {
	AvgSolveMs         float64 `json:"avgSolveMs"`
	SingleFlightShared int64   `json:"singleFlightShared"`
	ShedRequests       int64   `json:"shedRequests"`
}

func getStats(client *http.Client, url string) (daemonStats, error) {
	var st daemonStats
	resp, err := client.Get(url + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// serveObs is one completed request.
type serveObs struct {
	rank int
	lat  float64
	hit  bool
}

// runServe measures the serve workload: serveClients closed-loop clients,
// each on its own keep-alive connection, send the request stream
// to one daemon until the timed phase has lasted seconds.
func (e *env) runServe(s spec, seed int64, seconds float64) (*result, error) {
	r := newResult(s.name, seed, false)
	client := newClient()
	defer client.CloseIdleConnections()
	var st serveSetup
	var sp speed
	setups := make([]float64, setupReps)
	for i := range setups {
		sp.measure()
		start := time.Now()
		var err error
		if st, err = e.setupServe(seed, client); err != nil {
			return nil, err
		}
		setups[i] = time.Since(start).Seconds()
		if i < setupReps-1 {
			st.d.stop()
			client.CloseIdleConnections()
		}
	}
	defer st.d.stop()

	stream := serveStream()
	var (
		mu   sync.Mutex
		obs  []serveObs
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start).Seconds() < seconds {
				rank := stream[int(next.Add(1)-1)%len(stream)]
				t := time.Now()
				data, hit, err := post(client, st.d.url, st.bodies[rank])
				lat := time.Since(t).Seconds()
				if err == nil {
					err = st.v.check(st.pool[rank].name, data, true)
				} else {
					err = fmt.Errorf("%s: %w", st.pool[rank].name, err)
				}
				mu.Lock()
				r.Attempted++
				if err != nil {
					r.fail(err)
				} else {
					obs = append(obs, serveObs{rank, lat, hit})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	stats, err := getStats(client, st.d.url)
	if err != nil {
		return nil, fmt.Errorf("GET /stats: %w", err)
	}
	st.d.stop()
	// The clients keep both CPUs busy, so the kernel runs around the
	// timed phase rather than inside it.
	for i := 0; i < setupReps; i++ {
		sp.measure()
	}
	ps := st.d.cmd.ProcessState
	cpu := (ps.UserTime() + ps.SystemTime()).Seconds()
	var rssMB float64
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}

	var lats, hitLats, missLats []float64
	perRank := map[int][]serveObs{}
	for _, o := range obs {
		lats = append(lats, o.lat)
		if o.hit {
			hitLats = append(hitLats, o.lat)
		} else {
			missLats = append(missLats, o.lat)
		}
		perRank[o.rank] = append(perRank[o.rank], o)
	}
	ranks := make([]int, 0, len(perRank))
	for k := range perRank {
		ranks = append(ranks, k)
	}
	sort.Ints(ranks)
	for _, k := range ranks {
		var l []float64
		hits := 0
		for _, o := range perRank[k] {
			l = append(l, o.lat)
			if o.hit {
				hits++
			}
		}
		r.Rows = append(r.Rows, row{Program: st.pool[k].name, Requests: len(l), Values: map[string]float64{
			"median_s": median(l), "hits": float64(hits),
		}})
	}

	n := len(lats)
	f := sp.factor()
	r.set("setup_s", median(setups)*f, "s")
	r.set("request_s", median(lats)*f, "s")
	r.set("tail_s", percentile(lats, tailPct)*f, "s")
	r.set("rps", float64(n)/elapsed/f, "1/s")
	r.set("cpu_s", cpu/float64(max(n, 1))*f, "s")
	r.set("peak_rss_mb", rssMB, "MB")
	r.extra("tail_s.supported_pct", tailPercentile(n), "%")
	sp.report(r)
	r.extra("server.hit_ratio", float64(len(hitLats))/float64(max(n, 1)), "ratio")
	r.extra("server.hit_p50_ms", median(hitLats)*1e3, "ms")
	r.extra("server.miss_p50_ms", median(missLats)*1e3, "ms")
	r.extra("server.avg_solve_ms", stats.AvgSolveMs, "ms")
	r.extra("server.singleflight_shared", float64(stats.SingleFlightShared), "count")
	r.extra("server.shed", float64(stats.ShedRequests), "count")
	r.Samples["setup_s"] = setupReps
	for _, m := range []string{"request_s", "tail_s", "rps", "cpu_s"} {
		r.Samples[m] = n
	}
	r.Samples["peak_rss_mb"] = 1
	r.Samples["server.hit_p50_ms"] = len(hitLats)
	r.Samples["server.miss_p50_ms"] = len(missLats)
	return r, nil
}
