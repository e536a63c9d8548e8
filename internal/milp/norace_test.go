//go:build !race

package milp

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
