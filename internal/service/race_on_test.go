//go:build race

package service

// raceEnabled lets the one bulk-input test skip itself under the race
// detector, whose instrumentation slows it by an order of magnitude.
const raceEnabled = true
