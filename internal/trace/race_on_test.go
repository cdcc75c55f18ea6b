//go:build race

package trace

// raceEnabled lets allocation tests that need sync.Pool to keep what it is
// given skip themselves: under the race detector a Put drops its item one
// time in four.
const raceEnabled = true
