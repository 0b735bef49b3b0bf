package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	m := time.Millisecond
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100 * m},
		// Overlapping children cover [10, 50] once, plus [60, 70].
		{ID: 2, Parent: 1, Name: "a", Start: 10 * m, End: 30 * m},
		{ID: 3, Parent: 1, Name: "b", Start: 20 * m, End: 50 * m},
		{ID: 4, Parent: 1, Name: "c", Start: 60 * m, End: 70 * m},
		// A child running past its parent counts only up to the parent's end.
		{ID: 5, Name: "other", Start: 200 * m, End: 210 * m},
		{ID: 6, Parent: 5, Name: "late", Start: 205 * m, End: 220 * m},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 50 * m, 2: 20 * m, 3: 30 * m, 4: 10 * m, 5: 5 * m, 6: 15 * m} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestRecorderAndChromeTrace(t *testing.T) {
	rec := newRecorder()
	root := rec.begin("request", 0, 7)
	child := rec.begin("analyze", root, 7)
	rec.end(child)
	rec.end(root)
	var buf bytes.Buffer
	if err := writeChrome(&buf, rec.spans); err != nil {
		t.Fatal(err)
	}
	var got struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]int `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(got.TraceEvents))
	}
	ev := got.TraceEvents[1]
	if ev.Name != "analyze" || ev.Ph != "X" || ev.Args["parent"] != root || ev.Args["request"] != 7 {
		t.Errorf("child event = %+v, want analyze, complete, parent %d, request 7", ev, root)
	}
}
