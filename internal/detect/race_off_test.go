//go:build !race

package detect_test

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
