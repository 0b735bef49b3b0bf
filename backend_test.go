package vsfs

import (
	"strings"
	"testing"

	"vsfs/internal/andersen"
	"vsfs/internal/cfgfree"
	"vsfs/internal/checker"
	"vsfs/internal/core"
	"vsfs/internal/sfs"
)

// Every backend's Result answers the checkers' questions and the facade's
// queries under the same method names, with no adapter in between.
var (
	_ checker.FlowFacts = (*andersen.Result)(nil)
	_ checker.FlowFacts = (*sfs.Result)(nil)
	_ checker.FlowFacts = (*core.Result)(nil)
	_ checker.FlowFacts = (*cfgfree.Result)(nil)

	_ backend = (*andersen.Result)(nil)
	_ backend = (*sfs.Result)(nil)
	_ backend = (*core.Result)(nil)
	_ backend = (*cfgfree.Result)(nil)
)

func TestWriteDotNeedsSVFG(t *testing.T) {
	for _, m := range []Mode{FlowInsensitive, SFS, VSFS} {
		r, err := AnalyzeC(demoC, Options{Mode: m})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := r.WriteDot(&b); err != nil || !strings.Contains(b.String(), "digraph svfg") {
			t.Errorf("%s: WriteDot err = %v, out %.40q", m, err, b.String())
		}
	}
	r, err := AnalyzeC(demoC, Options{Mode: CFGFree})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := r.WriteDot(&b); err == nil || b.Len() != 0 {
		t.Errorf("cfgfree: WriteDot err = %v, wrote %d bytes; want an error and nothing written", err, b.Len())
	}
}
