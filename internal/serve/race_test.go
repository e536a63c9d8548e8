//go:build race

package serve

// raceEnabled reports a -race build. sync.Pool then drops a random
// quarter of the buffers put back, so allocation bounds do not hold.
const raceEnabled = true
