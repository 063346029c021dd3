//go:build race

package breakpoint

// raceEnabled trims the identity matrix: its searches are
// single-goroutine arithmetic the race detector only makes ~8x slower.
const raceEnabled = true
