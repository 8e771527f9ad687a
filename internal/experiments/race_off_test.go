//go:build !race

package experiments

// raceEnabled is false in a normal build: allocation counts are exact.
const raceEnabled = false
