//go:build !race

package tcp

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
