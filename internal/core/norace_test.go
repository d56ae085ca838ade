//go:build !race

package core_test

// raceEnabled reports a -race build, whose instrumentation makes the
// whole-run oracle tests tens of times slower.
const raceEnabled = false
