//go:build race

package runtime

// raceEnabled reports a -race build, whose instrumentation allocates beside
// the code under test.
const raceEnabled = true
