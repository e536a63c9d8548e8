//go:build !race

package iss

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
