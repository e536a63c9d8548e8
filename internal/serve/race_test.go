//go:build race

package serve

// raceEnabled reports a -race build. Every sync.Pool then drops a random
// quarter of the values put back, and the standard library's own pools
// (fmt, encoding/json) sit outside the project's recycler, so byte
// bounds over a response's encoding do not hold.
const raceEnabled = true
