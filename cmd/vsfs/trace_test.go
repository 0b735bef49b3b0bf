package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// traceFile mirrors the Chrome trace_event object format the -trace
// flag writes.
type traceFile struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args,omitempty"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func TestTraceFlagCoversPipelinePhases(t *testing.T) {
	src := writeTemp(t, "p.c", okC)
	out := filepath.Join(t.TempDir(), "trace.json")
	code, _, errb := runCLI(t, "-trace", out, src)
	if code != 0 {
		t.Fatalf("exit = %d: %s", code, errb)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	spans := map[string][2]float64{}
	for _, e := range tf.TraceEvents {
		if e.Ph != "X" {
			t.Fatalf("event %q has phase %q, want complete events (X)", e.Name, e.Ph)
		}
		spans[e.Name] = [2]float64{e.Ts, e.Ts + e.Dur}
	}
	for _, want := range []string{"parse", "andersen", "memssa", "svfg", "solve", "meld", "main"} {
		if _, ok := spans[want]; !ok {
			t.Errorf("trace missing span %q (got %v)", want, spans)
		}
	}
	// The versioning and main phases must nest inside the solve span.
	solve := spans["solve"]
	for _, inner := range []string{"meld", "main"} {
		s := spans[inner]
		if s[0] < solve[0] || s[1] > solve[1] {
			t.Errorf("span %q [%v,%v] not contained in solve [%v,%v]",
				inner, s[0], s[1], solve[0], solve[1])
		}
	}
}

// TestTraceStoreArgs: the span of every solve that keeps a set store
// carries its counters, in both flow-sensitive modes.
func TestTraceStoreArgs(t *testing.T) {
	src := writeTemp(t, "p.c", okC)
	for mode, spans := range map[string][]string{"vsfs": {"andersen", "main"}, "sfs": {"andersen", "sfs"}} {
		out := filepath.Join(t.TempDir(), "trace.json")
		if code, _, errb := runCLI(t, "-mode", mode, "-trace", out, src); code != 0 {
			t.Fatalf("-mode %s exit = %d: %s", mode, code, errb)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(data, &tf); err != nil {
			t.Fatalf("trace is not valid JSON: %v", err)
		}
		args := map[string]map[string]any{}
		for _, e := range tf.TraceEvents {
			args[e.Name] = e.Args
		}
		for _, span := range spans {
			for _, arg := range []string{"storeSets", "memoHits", "memoMisses"} {
				if _, ok := args[span][arg]; !ok {
					t.Errorf("-mode %s: span %q has no %q arg (args %v)", mode, span, arg, args[span])
				}
			}
		}
	}
}

func TestVerboseFlagLogsProgress(t *testing.T) {
	src := writeTemp(t, "p.c", okC)
	code, _, errb := runCLI(t, "-v", src)
	if code != 0 {
		t.Fatalf("exit = %d: %s", code, errb)
	}
	for _, want := range []string{"analyzing", "analysis complete"} {
		if !strings.Contains(errb, want) {
			t.Errorf("verbose log missing %q:\n%s", want, errb)
		}
	}
}
