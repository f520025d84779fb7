//go:build race

package farm

// raceEnabled: the race detector makes sync.Pool drop Puts at random, so
// allocation counts that depend on a warm pool are not stable under it.
const raceEnabled = true
