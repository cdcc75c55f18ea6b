//go:build !race

package service

// raceEnabled: see race_on_test.go.
const raceEnabled = false
