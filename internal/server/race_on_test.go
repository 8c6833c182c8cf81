//go:build race

package server

// raceEnabled reports that the race detector is on: it inflates allocation
// counts.
const raceEnabled = true
