//go:build race

package experiments

// raceEnabled is true when the test binary was built with -race, under which
// sync.Pool drops items at random and allocation counts stop being exact.
const raceEnabled = true
