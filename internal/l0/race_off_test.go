//go:build !race

package l0

// raceEnabled reports a -race build; see race_on_test.go.
const raceEnabled = false
