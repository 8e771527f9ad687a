package faultnet

import "math/rand"

// leanSource is a splitmix64 rand.Source64: one uint64 of state instead of
// the ~5 KB lagged-Fibonacci table math/rand's default source carries. The
// fleet experiment seeds one RNG per simulated device, so at 100k devices
// the source's footprint is the difference between ~800 KB and ~500 MB.
//
// Splitmix64 passes BigCrush and, crucially for Pogo, is a pure function of
// the seed and draw index — the same (Seed, call-schedule) determinism
// contract the default source satisfies, with a different stream.
type leanSource struct{ s uint64 }

// newLeanSource returns a compact deterministic rand.Source64 for the given
// seed. Intended for workloads that create one RNG per entity; the chaos
// suite keeps the default source so its pinned baselines stay valid.
func newLeanSource(seed int64) rand.Source64 {
	// Pre-mix the seed once so adjacent seeds (entity seeds differ in a few
	// bits) don't start in correlated states.
	s := &leanSource{s: uint64(seed)}
	s.Uint64()
	return s
}

func (l *leanSource) Uint64() uint64 {
	l.s += 0x9e3779b97f4a7c15
	z := l.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (l *leanSource) Int63() int64 { return int64(l.Uint64() >> 1) }

func (l *leanSource) Seed(seed int64) { l.s = uint64(seed); l.Uint64() }
