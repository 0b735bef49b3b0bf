package vsfs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"vsfs/internal/bitset"
	"vsfs/internal/guard"
	"vsfs/internal/ir"
	"vsfs/internal/obs"
	"vsfs/internal/workload"
)

// forEachProfileMode analyzes every Table II profile under every mode
// TestReportDigests pins, with attribution on so reports carry hot
// objects, and hands each result to check. Under -short and the race
// detector only the small profiles run.
func forEachProfileMode(t *testing.T, check func(t *testing.T, key string, r *Result)) {
	t.Helper()
	for _, p := range workload.Profiles() {
		if (testing.Short() || raceEnabled) && !digestShortProfiles[p.Name] {
			continue
		}
		src := p.Build().String()
		for _, mode := range digestModes {
			r, err := AnalyzeIR(src, Options{Mode: mode, Attr: true})
			if err != nil {
				t.Fatalf("%s/%s: %v", p.Name, mode, err)
			}
			check(t, p.Name+"/"+mode.String(), r)
		}
	}
}

// checkJSON compares the report writer with encoding/json on rep, at
// no prefix and at the one-level prefix the analysis server embeds a
// report under.
func checkJSON(t *testing.T, key string, rep Report) {
	t.Helper()
	got, err := rep.MarshalIndent()
	if err != nil {
		t.Fatalf("%s: MarshalIndent: %v", key, err)
	}
	want, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatalf("%s: json.MarshalIndent: %v", key, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: writer differs from encoding/json at byte %d of %d:\n%s", key, firstDiff(got, want), len(want), diffContext(got, want))
	}
	got, err = rep.AppendIndent([]byte("head"), "  ")
	if err != nil {
		t.Fatalf("%s: AppendIndent: %v", key, err)
	}
	want, _ = json.MarshalIndent(rep, "  ", "  ")
	if !bytes.Equal(got, append([]byte("head"), want...)) {
		t.Fatalf("%s: AppendIndent with a prefix differs from encoding/json", key)
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

func diffContext(got, want []byte) string {
	i := firstDiff(got, want)
	lo := max(0, i-80)
	return fmt.Sprintf("got:  %q\nwant: %q", got[lo:min(len(got), i+80)], want[lo:min(len(want), i+80)])
}

// TestReportJSONMatchesEncodingJSON: the report writer renders every
// backend's report on every profile as encoding/json does, with hot
// objects, and so does the partial report internal/oracle marshals.
func TestReportJSONMatchesEncodingJSON(t *testing.T) {
	forEachProfileMode(t, func(t *testing.T, key string, r *Result) {
		rep := r.Report()
		if len(rep.HotObjects) == 0 && r.Mode() != FlowInsensitive {
			t.Errorf("%s: attributed report has no hot objects", key)
		}
		checkJSON(t, key, rep)
		checkJSON(t, key+" partial", Report{Functions: rep.Functions, Findings: rep.Findings})
	})
}

// TestDegradedReportJSON: a degraded report's extra fields render as
// encoding/json renders them.
func TestDegradedReportJSON(t *testing.T) {
	plan := guard.NewFaultPlan(guard.Fault{Phase: "solve", Step: 0, Kind: guard.FaultSlow})
	res, err := analyzeWith(t, VSFS, plan, guard.NewBudget(1<<30, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report()
	if !rep.Degraded || rep.Degradation == "" {
		t.Fatalf("report degradation fields = %v %q, want a degraded report", rep.Degraded, rep.Degradation)
	}
	checkJSON(t, "degraded", rep)
}

// TestReportWriterKnowsEveryField: the writer names each field of the
// report's structs itself, so a field added to one must be added to the
// writer too; this fails until the counts below are updated with it.
func TestReportWriterKnowsEveryField(t *testing.T) {
	for _, c := range []struct {
		v    any
		want int
	}{{Report{}, 8}, {FuncReport{}, 3}, {VarFacts{}, 2}, {Finding{}, 7}} {
		if got := reflect.TypeOf(c.v).NumField(); got != c.want {
			t.Errorf("%T has %d fields, the report writer knows %d", c.v, got, c.want)
		}
	}
}

// TestEqualPointsToShareOneList: variables with equal points-to sets
// share one name list.
func TestEqualPointsToShareOneList(t *testing.T) {
	r, err := AnalyzeIR(workload.ProfileByName("nano").Build().String(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	byContents := map[string]*string{}
	vars, shared := 0, 0
	for _, f := range r.Report().Functions {
		for _, v := range f.Vars {
			vars++
			k := strings.Join(v.PointsTo, "\x00")
			if first, ok := byContents[k]; !ok {
				byContents[k] = &v.PointsTo[0]
			} else if first != &v.PointsTo[0] {
				t.Fatalf("%s.%s: equal points-to lists do not share one slice", f.Func, v.Var)
			} else {
				shared++
			}
		}
	}
	if shared == 0 {
		t.Fatalf("no two of %d variables share a list; the test checks nothing", vars)
	}
}

// TestDumpMatchesReference: Dump renders from the report's facts, and
// its text is what the reference rendering below (Dump before it did)
// gives, on every profile and mode. SFS and VSFS dumps agree past the
// header, which `vsfs -compare` checks.
func TestDumpMatchesReference(t *testing.T) {
	body := func(dump string) string { return dump[strings.IndexByte(dump, '\n')+1:] }
	var vsfsDump string // digestModes runs VSFS before SFS on each profile
	forEachProfileMode(t, func(t *testing.T, key string, r *Result) {
		got, want := r.Dump(), referenceDump(r)
		if got != want {
			t.Fatalf("%s: Dump differs from the reference:\n%s", key, diffContext([]byte(got), []byte(want)))
		}
		switch r.Mode() {
		case VSFS:
			vsfsDump = got
		case SFS:
			if body(got) != body(vsfsDump) {
				t.Errorf("%s: SFS and VSFS dumps differ past the header", key)
			}
		}
	})
}

// referenceDump is Dump as it rendered before it read the report's
// facts: per-function groups of temps by source-variable prefix, each
// group's union rendered as sorted object names.
func referenceDump(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "analysis: %s\n", r.mode)
	for _, f := range r.prog.Funcs {
		if strings.HasPrefix(f.Name, "__") {
			continue
		}
		fmt.Fprintf(&b, "func %s:\n", f.Name)
		groups := map[string]*bitset.Sparse{}
		collect := func(v ir.ID) {
			name := r.prog.Value(v).Name
			if i := strings.LastIndexByte(name, '.'); i > 0 {
				name = name[:i]
			}
			if strings.HasSuffix(name, ".addr") || strings.HasPrefix(name, "__") {
				return
			}
			set := groups[name]
			if set == nil {
				set = bitset.New()
				groups[name] = set
			}
			set.UnionWith(r.backend.PointsTo(v))
		}
		for _, p := range f.Params {
			collect(p)
		}
		f.ForEachInstr(func(in *ir.Instr) {
			if in.Def != ir.None {
				collect(in.Def)
			}
		})
		names := make([]string, 0, len(groups))
		for n := range groups {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if groups[n].IsEmpty() {
				continue
			}
			var objs []string
			groups[n].ForEach(func(o uint32) { objs = append(objs, r.prog.ObjValue(ir.Obj(o)).Name) })
			sort.Strings(objs)
			fmt.Fprintf(&b, "  %-16s → {%s}\n", n, strings.Join(objs, ", "))
		}
	}
	return b.String()
}

// FuzzReportJSON: on arbitrary names, messages and degradation strings,
// and nil or empty slices, the writer gives encoding/json's bytes, and
// Report.Dump pads names as fmt does.
func FuzzReportJSON(f *testing.F) {
	f.Add("main", "p", "a.obj", "use-after-free", "freed <p> & \"q\"\n", "fell back", uint8(0), uint32(7), 3)
	f.Add("f\u2028", "x\x00", "\xff\xfe", "", "tab\there", "", uint8(0xff), uint32(0), 0)
	f.Add("", "", "", "k", "m", "d", uint8(0x55), uint32(1<<31), -1)
	f.Fuzz(func(t *testing.T, fn, v, obj, kind, msg, degr string, shape uint8, label uint32, line int) {
		bit := func(i uint) bool { return shape&(1<<i) != 0 }
		// list returns nil, an empty slice or ss, by two bits of shape.
		list := func(i uint, ss ...string) []string {
			switch {
			case bit(i):
				return nil
			case bit(i + 1):
				return []string{}
			}
			return ss
		}
		pts := list(0, obj, v, obj+fn)
		rep := Report{
			Mode: kind + v,
			Functions: []FuncReport{
				{Func: fn, Vars: []VarFacts{{Var: v, PointsTo: pts}, {Var: obj, PointsTo: list(2, msg)}, {Var: fn, PointsTo: pts}}, Callees: list(4, fn, obj)},
				{Func: msg},
				{Func: obj, Vars: []VarFacts{}, Callees: []string{}},
			},
			Findings:    []Finding{{Kind: kind, Func: fn, Label: label, File: obj, Line: line, Col: -line, Message: msg}, {}},
			Degraded:    bit(6),
			Degradation: degr,
		}
		if bit(7) {
			rep.Functions, rep.Findings = nil, nil
			rep.HotObjects = []obs.HotObject{{Object: obj, ID: label, Pops: uint64(line), Sets: 1}}
		} else if bit(5) {
			rep.Functions, rep.Findings = []FuncReport{}, []Finding{}
		}
		checkJSON(t, "fuzz", rep)
		// Dump pads names itself; fmt's %-16s counts runes too.
		var want strings.Builder
		fmt.Fprintf(&want, "analysis: %s\n", rep.Mode)
		for _, f := range rep.Functions {
			fmt.Fprintf(&want, "func %s:\n", f.Func)
			for _, v := range f.Vars {
				fmt.Fprintf(&want, "  %-16s → {%s}\n", v.Var, strings.Join(v.PointsTo, ", "))
			}
		}
		if got := rep.Dump(); got != want.String() {
			t.Fatalf("Dump = %q, want %q", got, want.String())
		}
	})
}
