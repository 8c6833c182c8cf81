//go:build race

package rewrite

// raceEnabled reports that the race detector is on: it inflates allocation
// counts and slows the row-at-a-time oracles roughly tenfold.
const raceEnabled = true
