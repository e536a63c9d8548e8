//go:build !race

package asic

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
