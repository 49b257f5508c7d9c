//go:build !race

package extract_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
