//go:build race

package serve

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
