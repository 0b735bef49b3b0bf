package cfgfree

import (
	"testing"

	"vsfs/internal/andersen"
	"vsfs/internal/workload"
)

var cfSink *Result

// BenchmarkCFGFree times the CFG-free solve alone, window table
// included. The auxiliary analysis creates every field object the solve
// can reach, so each iteration re-solves the same program and auxiliary
// result; building them is left out of the timer.
func BenchmarkCFGFree(b *testing.B) {
	for _, name := range []string{"nano", "bash", "lynx"} {
		b.Run(name, func(b *testing.B) {
			prog := workload.ProfileByName(name).Build()
			aux := andersen.Analyze(prog)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfSink = Solve(prog, aux)
			}
		})
	}
}
