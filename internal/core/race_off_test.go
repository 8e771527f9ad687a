//go:build !race

package core

// raceEnabled is false in a normal build: allocation counts are exact.
const raceEnabled = false
