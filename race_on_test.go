//go:build race

package vsfs

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
