//go:build !race

package repro

// raceEnabled lets timing-sensitive tests skip themselves under the race
// detector; see race_on_test.go.
const raceEnabled = false
