// Package guard is a corpus stub: the analyzer only resolves the
// Tick names through this import path.
package guard

import "context"

func Tick(ctx context.Context, phase string, n int) error { return nil }

type Meter struct{ charged int64 }

func (m *Meter) Tick(ctx context.Context, phase string, n, total int64) error { return nil }
