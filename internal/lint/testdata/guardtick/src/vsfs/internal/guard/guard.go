// Package guard is a corpus stub: the analyzer only resolves the
// Tick name through this import path.
package guard

import "context"

func Tick(ctx context.Context, phase string, n int) error { return nil }
