package lint

import (
	"encoding/json"
	"fmt"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
)

// ReportContract diffs the JSON-bearing result structs — vsfs.Report
// and vsfs.RunRecord plus every module struct reachable through their
// fields (FuncReport, VarFacts, Finding, Summary, shape.Profile,
// obs.HotObject, ...) — against the committed golden schema at
// internal/lint/report_schema.json. The contract is append-only:
// report and run-ledger readers rely on the fields they already parse,
// so a removed field, a renamed JSON tag, a changed type, or a reorder
// of existing fields silently corrupts every downstream consumer and
// cached byte-identity golden. New fields and new types are always
// legal; regenerate the golden with `vsfs-lint -update-schema` after
// adding them.
var ReportContract = &Analyzer{
	Name: "reportcontract",
	Doc: "Report/shape.Profile/RunRecord JSON structs are append-only against the committed " +
		"golden schema (internal/lint/report_schema.json); regenerate with vsfs-lint -update-schema",
	RunModule: runReportContract,
}

// reportRoots are the facade types whose reachable-field closure
// defines the contract surface.
var reportRoots = []struct{ pkg, typ string }{
	{"vsfs", "Report"},
	{"vsfs", "RunRecord"},
}

// SchemaRelPath is where the golden schema lives, relative to the
// module root.
const SchemaRelPath = "internal/lint/report_schema.json"

// Schema is the committed golden: every contract struct with its
// JSON-visible fields in declaration order.
type Schema struct {
	Version int                   `json:"version"`
	Types   map[string]SchemaType `json:"types"`
}

// SchemaType is one struct's field list, in declaration order.
type SchemaType struct {
	Fields []SchemaField `json:"fields"`
}

// SchemaField records what JSON consumers can observe about a field.
type SchemaField struct {
	Name string `json:"name"`
	JSON string `json:"json"`
	Type string `json:"type"`
}

func runReportContract(passes []*Pass) []Finding {
	root, current, anchors, ok := currentSchema(passes)
	if !ok {
		// Partial load (e.g. vsfs-lint ./internal/core) without the
		// facade package: nothing to check.
		return nil
	}
	schemaPath := filepath.Join(root.ModuleRoot, filepath.FromSlash(SchemaRelPath))
	data, err := os.ReadFile(schemaPath)
	if err != nil {
		return []Finding{{
			Analyzer: "reportcontract",
			Pos:      root.Fset.Position(root.Files[0].Pos()),
			Message: fmt.Sprintf("missing golden schema %s: run `vsfs-lint -update-schema` and commit it",
				SchemaRelPath),
		}}
	}
	var golden Schema
	if err := json.Unmarshal(data, &golden); err != nil {
		return []Finding{{
			Analyzer: "reportcontract",
			Pos:      root.Fset.Position(root.Files[0].Pos()),
			Message:  fmt.Sprintf("golden schema %s is not valid JSON: %v", SchemaRelPath, err),
		}}
	}
	return diffSchema(root, golden, current, anchors)
}

// diffSchema enforces append-only: everything the golden promises
// must still exist, unchanged and in the same relative order.
func diffSchema(root *Pass, golden, current Schema, anchors map[string]token.Pos) []Finding {
	var out []Finding
	report := func(typeName string, format string, args ...any) {
		pos := anchors[typeName]
		if pos == token.NoPos {
			pos = root.Files[0].Pos()
		}
		out = append(out, findingf(root, "reportcontract", pos, format, args...))
	}
	typeNames := make([]string, 0, len(golden.Types))
	for name := range golden.Types {
		typeNames = append(typeNames, name)
	}
	sort.Strings(typeNames)
	for _, typeName := range typeNames {
		gt := golden.Types[typeName]
		ct, ok := current.Types[typeName]
		if !ok {
			report(typeName, "contract type %s was removed (golden schema still promises it to "+
				"report/ledger consumers); the contract is append-only", typeName)
			continue
		}
		cur := map[string]SchemaField{}
		order := map[string]int{}
		for i, f := range ct.Fields {
			cur[f.Name] = f
			order[f.Name] = i
		}
		last := -1
		for _, gf := range gt.Fields {
			cf, ok := cur[gf.Name]
			if !ok {
				report(typeName, "%s.%s (json %q) was removed; the report/ledger contract is "+
					"append-only — deprecate in place instead", typeName, gf.Name, gf.JSON)
				continue
			}
			if cf.JSON != gf.JSON {
				report(typeName, "%s.%s json tag changed %q -> %q; renaming breaks every consumer "+
					"keyed on the old name", typeName, gf.Name, gf.JSON, cf.JSON)
			}
			if cf.Type != gf.Type {
				report(typeName, "%s.%s type changed %s -> %s; contract field types are frozen",
					typeName, gf.Name, gf.Type, cf.Type)
			}
			if idx := order[gf.Name]; idx < last {
				report(typeName, "%s.%s moved before an earlier contract field; existing fields "+
					"keep their relative order so marshaled JSON stays byte-stable", typeName, gf.Name)
			} else {
				last = idx
			}
		}
	}
	return out
}

// currentSchema builds the schema from the loaded type information,
// returning the facade pass, the schema, and a type-name → position
// anchor map.
func currentSchema(passes []*Pass) (*Pass, Schema, map[string]token.Pos, bool) {
	byPath := map[string]*Pass{}
	for _, p := range passes {
		byPath[p.Path] = p
	}
	root := byPath["vsfs"]
	if root == nil {
		return nil, Schema{}, nil, false
	}
	sch := Schema{Version: 1, Types: map[string]SchemaType{}}
	anchors := map[string]token.Pos{}
	var visit func(named *types.Named)
	visit = func(named *types.Named) {
		obj := named.Obj()
		if obj.Pkg() == nil || !inModule(obj.Pkg().Path()) {
			return
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			return
		}
		typeName := qualifiedName(obj)
		if _, seen := sch.Types[typeName]; seen {
			return
		}
		anchors[typeName] = obj.Pos()
		var fields []SchemaField
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !f.Exported() {
				continue
			}
			tag := reflect.StructTag(st.Tag(i)).Get("json")
			if tag == "-" {
				continue
			}
			fields = append(fields, SchemaField{
				Name: f.Name(),
				JSON: tag,
				Type: typeString(f.Type()),
			})
			for _, n := range namedIn(f.Type()) {
				visit(n)
			}
		}
		sch.Types[typeName] = SchemaType{Fields: fields}
	}
	for _, r := range reportRoots {
		p := byPath[r.pkg]
		if p == nil {
			return nil, Schema{}, nil, false
		}
		obj := p.Pkg.Scope().Lookup(r.typ)
		if obj == nil {
			// A removed root is the worst possible contract break;
			// anchor it at the package root.
			anchors[r.pkg+"."+r.typ] = p.Files[0].Pos()
			continue
		}
		if named, ok := types.Unalias(obj.Type()).(*types.Named); ok {
			visit(named)
		}
	}
	return root, sch, anchors, true
}

// BuildSchema computes the current schema for -update-schema.
func BuildSchema(passes []*Pass) (Schema, error) {
	_, sch, _, ok := currentSchema(passes)
	if !ok {
		return Schema{}, fmt.Errorf("load did not include the vsfs facade package; run over ./...")
	}
	return sch, nil
}

// WriteSchema marshals the schema to its canonical on-disk form.
func WriteSchema(path string, sch Schema) error {
	data, err := json.MarshalIndent(sch, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// inModule reports whether an import path belongs to this module.
func inModule(path string) bool {
	return path == "vsfs" || strings.HasPrefix(path, "vsfs/")
}

// qualifiedName renders a contract type as "pkgpath.Name" with the
// module prefix kept ("vsfs.Report", "vsfs/internal/shape.Profile").
func qualifiedName(obj *types.TypeName) string {
	return obj.Pkg().Path() + "." + obj.Name()
}

// typeString renders a field type with package-path qualifiers,
// unaliasing the top level so `type Shape = shape.Profile` and a
// direct shape.Profile reference produce the same contract string.
func typeString(t types.Type) string {
	return types.TypeString(types.Unalias(t), func(p *types.Package) string { return p.Path() })
}

// namedIn collects the module-local named struct types reachable from
// t through pointers, slices, arrays and map values — the types the
// contract closure must include.
func namedIn(t types.Type) []*types.Named {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		return []*types.Named{t}
	case *types.Pointer:
		return namedIn(t.Elem())
	case *types.Slice:
		return namedIn(t.Elem())
	case *types.Array:
		return namedIn(t.Elem())
	case *types.Map:
		return append(namedIn(t.Key()), namedIn(t.Elem())...)
	}
	return nil
}
