//go:build !race

package mil

const raceEnabled = false
