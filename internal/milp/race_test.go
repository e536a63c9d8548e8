//go:build race

package milp

// raceEnabled reports a -race build. sync.Pool then drops a random
// quarter of the workspaces put back, so allocation bounds do not hold.
const raceEnabled = true
