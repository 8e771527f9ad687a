//go:build !race

package msg

// raceEnabled is false in a normal build: allocation counts are exact.
const raceEnabled = false
