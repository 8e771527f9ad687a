//go:build !race

package xmpp

// raceEnabled is false in a normal build: allocation counts are exact.
const raceEnabled = false
