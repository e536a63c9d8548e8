//go:build !race

package dse

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
