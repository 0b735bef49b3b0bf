package main

import (
	"bytes"
	"testing"
)

// TestSmoke builds the binaries under test, makes one CLI request on du
// and five serve requests, and checks every answer against the goldens.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs vsfs and vsfs-serve")
	}
	cfg, err := loadConfig("..")
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	e, err := newEnv("..", cfg, &log, &log)
	if err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	g, err := loadGoldens("..")
	if err != nil {
		t.Fatal(err)
	}
	const seed = 3

	p, err := generate("du", seed)
	if err != nil {
		t.Fatal(err)
	}
	ins, err := e.writeInputs("smoke", []program{p})
	if err != nil {
		t.Fatal(err)
	}
	smp, err := e.cli(ins[0], "vsfs", newVerifier(g, seed))
	if err != nil {
		t.Fatalf("CLI request on du: %v", err)
	}
	if smp.wall <= 0 || smp.cpu <= 0 || smp.rssMB <= 0 {
		t.Errorf("CLI sample %+v has a non-positive measurement", smp)
	}

	client := newClient()
	defer client.CloseIdleConnections()
	st, err := e.setupServe(seed, client)
	if err != nil {
		t.Fatal(err)
	}
	defer st.d.stop()
	for i, rank := range serveStream()[:5] {
		data, _, err := post(client, st.d.url, st.bodies[rank])
		if err != nil {
			t.Fatalf("serve request %d (%s): %v", i, st.pool[rank].name, err)
		}
		if err := st.v.check(st.pool[rank].name, data, true); err != nil {
			t.Errorf("serve request %d: %v", i, err)
		}
	}
	stats, err := getStats(client, st.d.url)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ShedRequests != 0 {
		t.Errorf("daemon shed %d requests", stats.ShedRequests)
	}
}
