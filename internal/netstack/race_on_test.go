//go:build race

package netstack

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
