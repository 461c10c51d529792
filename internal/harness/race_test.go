//go:build race

package harness

// raceEnabled reports a -race build, under which sync.Pool drops a quarter of
// its Puts on purpose, so no allocation bound that rests on a pool holds.
const raceEnabled = true
