//go:build race

package repro

// raceEnabled lets timing-sensitive tests skip themselves under the race
// detector, whose instrumentation slows the runtime by an order of magnitude.
const raceEnabled = true
