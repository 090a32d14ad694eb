//go:build !race

package crp

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
