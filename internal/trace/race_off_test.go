//go:build !race

package trace

// raceEnabled: see race_on_test.go.
const raceEnabled = false
