package vsfs

import (
	"encoding/json"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"vsfs/internal/checker"
	"vsfs/internal/obs"
)

// VarFacts is one source-level variable's points-to facts. Variables
// whose sets are equal share one PointsTo slice, so it must not be
// mutated.
type VarFacts struct {
	Var      string   `json:"var"`
	PointsTo []string `json:"pointsTo"`
}

// FuncReport is one function's slice of the analysis result.
type FuncReport struct {
	Func    string     `json:"func"`
	Vars    []VarFacts `json:"vars,omitempty"`
	Callees []string   `json:"callees,omitempty"`
}

// Finding is one checker-reported issue, mirroring
// internal/checker.Finding at the facade boundary. File, Line and Col
// are the source position when the program carries provenance
// (mini-C input with Options.Filename set); zero otherwise.
type Finding struct {
	Kind    string `json:"kind"`
	Func    string `json:"func"`
	Label   uint32 `json:"label"`
	File    string `json:"file,omitempty"`
	Line    int    `json:"line,omitempty"`
	Col     int    `json:"col,omitempty"`
	Message string `json:"message"`
}

// Report is the machine-readable form of Dump plus the call graph,
// checker findings, and run statistics. Every slice is sorted, so two
// runs over the same input marshal to byte-identical JSON — the
// property the analysis service's result cache relies on. A report is
// read-only: the PointsTo lists of variables with equal sets share one
// backing slice.
type Report struct {
	Mode      string       `json:"mode"`
	Functions []FuncReport `json:"functions"`
	Findings  []Finding    `json:"findings"`
	Stats     Summary      `json:"stats"`

	// Shape is the Table II-style program feature vector; deterministic
	// for a given input, so it never breaks the byte-identity the result
	// cache keys on.
	Shape Shape `json:"shape"`

	// HotObjects is the per-object cost attribution top-K, present only
	// when the run enabled Options.Attr (so default reports stay
	// byte-identical to pre-attribution ones).
	HotObjects []obs.HotObject `json:"hotObjects,omitempty"`

	// Degraded marks a run that exhausted its resource budget and fell
	// down the backend ladder; Degradation is the human-readable
	// reason. Mode reflects the analysis that actually produced the
	// facts ("cfgfree" or "andersen" on degraded runs).
	Degraded    bool   `json:"degraded,omitempty"`
	Degradation string `json:"degradation,omitempty"`
}

// reportTopK bounds the hot-object table embedded in reports; clients
// needing more call Result.HotObjects directly.
const reportTopK = 10

// Report builds the structured result. Order is deterministic
// everywhere: functions in definition order, variables and callees
// sorted by name, findings in instruction order.
func (r *Result) Report() Report {
	rep := Report{
		Mode:        r.mode.String(),
		Functions:   r.funcFacts(),
		Findings:    r.Check(),
		Stats:       r.Stats(),
		Shape:       r.shape,
		HotObjects:  r.HotObjects(reportTopK),
		Degraded:    r.degraded,
		Degradation: r.degradation,
	}
	if rep.Findings == nil {
		rep.Findings = []Finding{}
	}
	cg := r.CallGraph()
	for i := range rep.Functions {
		rep.Functions[i].Callees = cg[rep.Functions[i].Func]
	}
	return rep
}

// Dump renders the report's points-to facts as text: Result.Dump is
// this over Result.Report's functions.
func (rep Report) Dump() string {
	var b strings.Builder
	b.WriteString("analysis: ")
	b.WriteString(rep.Mode)
	b.WriteByte('\n')
	for _, f := range rep.Functions {
		b.WriteString("func ")
		b.WriteString(f.Func)
		b.WriteString(":\n")
		for _, v := range f.Vars {
			b.WriteString("  ")
			b.WriteString(v.Var)
			// fmt's %-16s: pad to 16 runes.
			for n := utf8.RuneCountInString(v.Var); n < 16; n++ {
				b.WriteByte(' ')
			}
			b.WriteString(" → {")
			for i, o := range v.PointsTo {
				if i > 0 {
					b.WriteString(", ")
				}
				b.WriteString(o)
			}
			b.WriteString("}\n")
		}
	}
	return b.String()
}

// MarshalIndent renders the report as json.MarshalIndent(rep, "", "  ")
// does, byte for byte: the canonical rendering cmd/vsfs -json and the
// analysis server emit. See AppendIndent.
func (rep Report) MarshalIndent() ([]byte, error) {
	return rep.AppendIndent(nil, "")
}

// AppendIndent appends the report to dst as json.MarshalIndent(rep,
// prefix, "  ") renders it, byte for byte, so a caller can embed the
// report in a larger indented document. It writes functions and
// findings directly, renders each shared PointsTo list once and copies
// it for every later variable that shares it, and leaves only the
// small fixed-shape tail (stats, shape, hot objects) to encoding/json.
func (rep Report) AppendIndent(dst []byte, prefix string) ([]byte, error) {
	w := reportWriter{
		buf:    slices.Grow(dst, rep.sizeHint(len(prefix))),
		indent: "\n" + prefix + strings.Repeat("  ", 6),
		lists:  make(map[listKey][2]int),
	}
	w.buf = append(w.buf, '{')
	w.key(1, "mode")
	w.str(rep.Mode)
	w.buf = append(w.buf, ',')
	w.key(1, "functions")
	w.array(1, len(rep.Functions), rep.Functions == nil, func(i int) { w.function(rep.Functions[i]) })
	w.buf = append(w.buf, ',')
	w.key(1, "findings")
	w.array(1, len(rep.Findings), rep.Findings == nil, func(i int) { w.finding(rep.Findings[i]) })
	tail := []struct {
		name string
		v    any
		omit bool
	}{
		{"stats", rep.Stats, false},
		{"shape", rep.Shape, false},
		{"hotObjects", rep.HotObjects, len(rep.HotObjects) == 0},
	}
	for _, t := range tail {
		if t.omit {
			continue
		}
		data, err := json.MarshalIndent(t.v, prefix+"  ", "  ")
		if err != nil {
			return dst, err
		}
		w.buf = append(w.buf, ',')
		w.key(1, t.name)
		w.buf = append(w.buf, data...)
	}
	if rep.Degraded {
		w.buf = append(w.buf, ',')
		w.key(1, "degraded")
		w.buf = append(w.buf, "true"...)
	}
	if rep.Degradation != "" {
		w.buf = append(w.buf, ',')
		w.key(1, "degradation")
		w.str(rep.Degradation)
	}
	w.close(0, '}', 1)
	return w.buf, nil
}

// reportWriter renders a Report as indented JSON. indent is a newline,
// the prefix and enough indentation for the deepest line; a line at
// depth d starts with its first 1+len(prefix)+2d bytes.
type reportWriter struct {
	buf    []byte
	indent string
	// lists maps a PointsTo slice already written to its rendering's
	// bounds in buf. Every list sits at the same depth, so a shared
	// list's bytes are the same wherever it appears.
	lists map[listKey][2]int
}

// listKey identifies a PointsTo slice by its first element and length.
type listKey struct {
	first *string
	n     int
}

// nl starts a new line at depth d.
func (w *reportWriter) nl(d int) {
	w.buf = append(w.buf, w.indent[:len(w.indent)-2*(6-d)]...)
}

// key starts a new line at depth d holding the object key k.
func (w *reportWriter) key(d int, k string) {
	w.nl(d)
	w.buf = append(w.buf, '"')
	w.buf = append(w.buf, k...)
	w.buf = append(w.buf, `": `...)
}

// close ends an array or object of n elements whose closing bracket c
// sits at depth d. An empty one stays on its opening line.
func (w *reportWriter) close(d int, c byte, n int) {
	if n > 0 {
		w.nl(d)
	}
	w.buf = append(w.buf, c)
}

// array writes an array of n elements, each written by elem on lines
// deeper than d, with its closing bracket at depth d. Like
// encoding/json, it writes a nil slice as null and keeps an empty one
// on its opening line.
func (w *reportWriter) array(d, n int, isNil bool, elem func(i int)) {
	if isNil {
		w.buf = append(w.buf, "null"...)
		return
	}
	w.buf = append(w.buf, '[')
	for i := range n {
		if i > 0 {
			w.buf = append(w.buf, ',')
		}
		elem(i)
	}
	w.close(d, ']', n)
}

// strArray writes a string array whose elements sit at depth d.
func (w *reportWriter) strArray(d int, ss []string) {
	w.array(d-1, len(ss), ss == nil, func(i int) {
		w.nl(d)
		w.str(ss[i])
	})
}

func (w *reportWriter) function(f FuncReport) {
	w.nl(2)
	w.buf = append(w.buf, '{')
	w.key(3, "func")
	w.str(f.Func)
	if len(f.Vars) > 0 {
		w.buf = append(w.buf, ',')
		w.key(3, "vars")
		w.array(3, len(f.Vars), false, func(i int) {
			w.nl(4)
			w.buf = append(w.buf, '{')
			w.key(5, "var")
			w.str(f.Vars[i].Var)
			w.buf = append(w.buf, ',')
			w.key(5, "pointsTo")
			w.pointsTo(f.Vars[i].PointsTo)
			w.close(4, '}', 1)
		})
	}
	if len(f.Callees) > 0 {
		w.buf = append(w.buf, ',')
		w.key(3, "callees")
		w.strArray(4, f.Callees)
	}
	w.close(2, '}', 1)
}

// pointsTo writes a PointsTo list, copying the bytes of its earlier
// rendering when the same slice was written before.
func (w *reportWriter) pointsTo(list []string) {
	if len(list) == 0 {
		w.strArray(6, list)
		return
	}
	k := listKey{&list[0], len(list)}
	if at, ok := w.lists[k]; ok {
		w.buf = append(w.buf, w.buf[at[0]:at[1]]...)
		return
	}
	start := len(w.buf)
	w.strArray(6, list)
	w.lists[k] = [2]int{start, len(w.buf)}
}

func (w *reportWriter) finding(f Finding) {
	w.nl(2)
	w.buf = append(w.buf, '{')
	w.key(3, "kind")
	w.str(f.Kind)
	w.buf = append(w.buf, ',')
	w.key(3, "func")
	w.str(f.Func)
	w.buf = append(w.buf, ',')
	w.key(3, "label")
	w.buf = strconv.AppendUint(w.buf, uint64(f.Label), 10)
	if f.File != "" {
		w.buf = append(w.buf, ',')
		w.key(3, "file")
		w.str(f.File)
	}
	if f.Line != 0 {
		w.buf = append(w.buf, ',')
		w.key(3, "line")
		w.buf = strconv.AppendInt(w.buf, int64(f.Line), 10)
	}
	if f.Col != 0 {
		w.buf = append(w.buf, ',')
		w.key(3, "col")
		w.buf = strconv.AppendInt(w.buf, int64(f.Col), 10)
	}
	w.buf = append(w.buf, ',')
	w.key(3, "message")
	w.str(f.Message)
	w.close(2, '}', 1)
}

// str writes s as a JSON string. Printable ASCII that encoding/json
// leaves alone is copied as it is; anything else (quotes, backslashes,
// the HTML characters <, > and &, control bytes, non-ASCII, invalid
// UTF-8) goes through encoding/json's own escaping.
func (w *reportWriter) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			data, _ := json.Marshal(s) // a string always marshals
			w.buf = append(w.buf, data...)
			return
		}
	}
	w.buf = append(w.buf, '"')
	w.buf = append(w.buf, s...)
	w.buf = append(w.buf, '"')
}

// sizeHint estimates the rendered size of the report at a prefix of
// length p, a little over for functions and findings of plain ASCII and
// with room for the fixed-shape tail.
func (rep *Report) sizeHint(p int) int {
	line := func(d int) int { return 1 + p + 2*d }
	n := 4096 + 64*p
	for _, f := range rep.Functions {
		n += 2*line(2) + line(3) + 12 + len(f.Func) + 2*(line(3)+16)
		for _, v := range f.Vars {
			n += 2*line(4) + 2*line(5) + 24 + len(v.Var) + line(5)
			for _, o := range v.PointsTo {
				n += line(6) + 3 + len(o)
			}
		}
		for _, c := range f.Callees {
			n += line(4) + 3 + len(c)
		}
	}
	for _, f := range rep.Findings {
		n += 9*line(3) + 96 + len(f.Kind) + len(f.Func) + len(f.File) + len(f.Message)
	}
	return n
}

// CheckConfig tunes Result.CheckWith. The zero value runs the
// memory-safety checkers only; naming both a taint source and sink adds
// the information-flow checker, optionally hardened with sanitizer
// functions.
type CheckConfig struct {
	// TaintSource marks every object allocated in the named function
	// sensitive; TaintSink reports sensitive objects reaching arguments
	// of calls to the named function. Both must be set to enable the
	// taint checker.
	TaintSource string `json:"taintSource,omitempty"`
	TaintSink   string `json:"taintSink,omitempty"`
	// TaintSanitizers declassify everything reachable from arguments of
	// calls to the named functions.
	TaintSanitizers []string `json:"taintSanitizers,omitempty"`
}

// Check runs the memory-safety clients (null/uninitialised dereference,
// dangling returns, stack escapes, use-after-free, double-free,
// memory-leak) over the solved facts of this run's analysis mode.
// Findings come back in instruction order per client — deterministic
// for a given program.
func (r *Result) Check() []Finding {
	return r.CheckWith(CheckConfig{})
}

// CheckWith is Check plus optional taint checking; see CheckConfig.
func (r *Result) CheckWith(cfg CheckConfig) []Finding {
	all := checker.MemorySafety(r.prog, r.backend)
	if cfg.TaintSource != "" && cfg.TaintSink != "" {
		sans := make([]checker.LeakSanitizer, 0, len(cfg.TaintSanitizers))
		for _, s := range cfg.TaintSanitizers {
			sans = append(sans, checker.LeakSanitizer{Func: s})
		}
		all = append(all, checker.Leaks(r.prog, r.backend, r.backend,
			checker.LeakSource{Func: cfg.TaintSource},
			checker.LeakSink{Func: cfg.TaintSink}, sans...)...)
	}
	out := make([]Finding, 0, len(all))
	for _, f := range all {
		out = append(out, Finding{
			Kind:    string(f.Kind),
			Func:    f.Func,
			Label:   f.Label,
			File:    r.prog.File,
			Line:    f.Pos.Line,
			Col:     f.Pos.Col,
			Message: f.Message,
		})
	}
	return out
}
