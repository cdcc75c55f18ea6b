//go:build race

package repro

// raceEnabled lets timing-sensitive tests skip themselves under the race
// detector, whose instrumentation slows the runtime by an order of magnitude.
const raceEnabled = true

// wildcardRelTol: see differential_test.go.
const wildcardRelTol = 2e-2
