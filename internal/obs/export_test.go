package obs

import (
	"math"
	"time"
)

// Readers and drivers that only tests need: production reads a registry
// through Snapshot and evaluates alerts from Sample.

// Rules returns a copy of the installed rules in evaluation order.
func (e *AlertEngine) Rules() []Rule {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Rule(nil), e.rules...)
}

// Evaluate runs every rule against the registry at instant at, stepping the
// state machines and appending transitions to the log. Deterministic drivers
// call it at simulated instants (Registry.Sample does so automatically);
// calling it with a fresh snapshot is also valid for one-shot health checks.
func (e *AlertEngine) Evaluate(at time.Time) {
	if e == nil || e.reg == nil {
		return
	}
	e.evaluate(at, e.reg.Snapshot())
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Len returns the number of retained samples.
func (s *SeriesStore) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Tree reassembles the span tree of one trace from whatever hops were
// retained (assembleTree).
func (s *SpanStore) Tree(trace TraceID) *SpanNode {
	return assembleTree(s.HopsFor(trace))
}

// Stages returns the set of stages present in the tree, in canonical hop
// order — the quick "did this message make it to deliver?" probe used by
// flight-dump verification.
func (n *SpanNode) Stages() []Stage {
	var out []Stage
	n.Walk(func(_ int, node *SpanNode) { out = append(out, node.Hop.Stage) })
	return out
}
