//go:build !race

package pubsub

// raceEnabled is false in a normal build: allocation counts are exact.
const raceEnabled = false
