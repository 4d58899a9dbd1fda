//go:build race

package bench

// raceEnabled reports whether the race detector is compiled in; the
// repeated-run leak test runs fewer repetitions under it.
const raceEnabled = true
