//go:build !race

package lc

// raceEnabled reports whether the race detector instruments this build;
// the allocation gate skips itself when it does.
const raceEnabled = false
