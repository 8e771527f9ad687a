// The benchmark is a module of its own, nested in the repository's: its
// import path keeps the pogo/ prefix, so it may import pogo/internal/...,
// and the replace directive points those imports at the checkout it sits in.
module pogo/bench

go 1.22

require pogo v0.0.0

replace pogo => ../
