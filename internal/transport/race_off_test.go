//go:build !race

package transport

// raceEnabled is false in a normal build: allocation counts are exact.
const raceEnabled = false
