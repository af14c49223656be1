//go:build !race

package repro

// raceEnabled reports whether the test binary runs under the race
// detector.
const raceEnabled = false
