package andersen

import (
	"testing"

	"vsfs/internal/workload"
)

var auxSink *Result

// BenchmarkAndersen times the auxiliary analysis alone. Field objects
// are created during solving, so every iteration solves a freshly built
// program; building it is left out of the timer.
func BenchmarkAndersen(b *testing.B) {
	for _, name := range []string{"nano", "bash", "lynx"} {
		b.Run(name, func(b *testing.B) {
			p := workload.ProfileByName(name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				prog := p.Build()
				b.StartTimer()
				auxSink = Analyze(prog)
			}
		})
	}
}
