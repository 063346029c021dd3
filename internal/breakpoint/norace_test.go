//go:build !race

package breakpoint

const raceEnabled = false
