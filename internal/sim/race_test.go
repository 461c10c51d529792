//go:build race

package sim

// raceEnabled reports a -race build, whose instrumentation allocates on its
// own account, so no allocation budget holds under it.
const raceEnabled = true
