package obs

import (
	"context"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Trace collects completed spans of one pipeline run and exports them
// as Chrome trace_event JSON, viewable in chrome://tracing or Perfetto.
// A Trace is safe for concurrent spans; span nesting in the viewer is
// inferred from time containment on the shared track.
type Trace struct {
	mu     sync.Mutex
	start  time.Time
	events []Event
	tags   map[string]any
}

// Event is one complete ("ph":"X") trace event. Timestamps and
// durations are microseconds; Ts is relative to the trace start.
type Event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the Chrome trace_event "JSON object format".
type traceFile struct {
	TraceEvents     []Event `json:"traceEvents"`
	DisplayTimeUnit string  `json:"displayTimeUnit"`
}

// NewTrace returns an empty trace whose time origin is now.
func NewTrace() *Trace {
	return &Trace{start: time.Now()}
}

// Span is one in-flight region of a Trace. A nil *Span is a valid
// no-op, so instrumentation sites need no "is tracing on?" branches.
type Span struct {
	tr    *Trace
	name  string
	begin time.Time
	args  map[string]any
}

// Tag stamps key=value onto the args of every span completed from now
// on (explicit Span.Arg values win on collision). The daemon uses it to
// carry the request ID into per-solve traces, so a trace file can be
// correlated with the access-log line for the same request.
func (t *Trace) Tag(key string, value any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.tags == nil {
		t.tags = make(map[string]any)
	}
	t.tags[key] = value
	t.mu.Unlock()
}

// Start opens a span. Close it with End.
func (t *Trace) Start(name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{tr: t, name: name, begin: time.Now()}
}

// Arg attaches a key/value to the span (rendered under "args" in the
// viewer). Returns the span for chaining.
func (s *Span) Arg(key string, value any) *Span {
	if s == nil {
		return nil
	}
	if s.args == nil {
		s.args = make(map[string]any)
	}
	s.args[key] = value
	return s
}

// End completes the span and records it on the trace.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Now()
	s.tr.mu.Lock()
	if len(s.tr.tags) > 0 {
		if s.args == nil {
			s.args = make(map[string]any, len(s.tr.tags))
		}
		for k, v := range s.tr.tags {
			if _, ok := s.args[k]; !ok {
				s.args[k] = v
			}
		}
	}
	// Both ends are truncated against the trace start, not the span's
	// own begin, so a child span's rounded end never passes its
	// parent's.
	ts := s.begin.Sub(s.tr.start).Microseconds()
	s.tr.events = append(s.tr.events, Event{
		Name: s.name,
		Cat:  "vsfs",
		Ph:   "X",
		Ts:   ts,
		Dur:  end.Sub(s.tr.start).Microseconds() - ts,
		Pid:  1,
		Tid:  1,
		Args: s.args,
	})
	s.tr.mu.Unlock()
}

// Events returns a snapshot of the completed events, in completion
// order.
func (t *Trace) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// WriteJSON renders the trace in Chrome trace_event JSON object format.
func (t *Trace) WriteJSON(w io.Writer) error {
	t.mu.Lock()
	f := traceFile{TraceEvents: t.events, DisplayTimeUnit: "ms"}
	if f.TraceEvents == nil {
		f.TraceEvents = []Event{}
	}
	data, err := json.MarshalIndent(f, "", "  ")
	t.mu.Unlock()
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// Phase is one entry of a run's phase record: a pipeline phase and the
// wall time it took.
type Phase struct {
	Name string
	Wall time.Duration
}

// traceKey keys a *Trace in a context.
type traceKey struct{}

// NewContext returns ctx carrying t, so the pipeline phases deep in the
// solver packages can emit spans without signature changes.
func NewContext(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom extracts the context's trace, or nil when tracing is off.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// StartSpan opens a span on the context's trace; with no trace attached
// it returns a nil (no-op) span. This is the one-liner used at every
// instrumentation site.
func StartSpan(ctx context.Context, name string) *Span {
	return TraceFrom(ctx).Start(name)
}
