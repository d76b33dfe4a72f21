//go:build race

package engine

// raceEnabled is set under the race detector, whose sync.Pool drops
// items at random and whose instrumentation allocates, so allocation
// counts mean nothing there.
const raceEnabled = true
