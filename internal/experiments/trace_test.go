package experiments

import (
	"bytes"
	"math"
	"testing"

	"pogo/internal/obs"
)

// TestChaosLogUnchangedByTracing is the observer-effect regression: trace IDs
// are assigned and carried on the wire whether or not a registry is watching,
// so attaching causal tracing must not perturb a single byte of the delivery
// log. (The failure mode it guards: wire length feeding faultnet's
// rejection-sampled corruption RNG, so a "harmless" observer shifts every
// subsequent fault draw.)
func TestChaosLogUnchangedByTracing(t *testing.T) {
	cfg := small(ChaosScenarios(42)[2].Config) // heavy: churn + partitions + all faults
	off := Chaos("heavy", cfg)

	cfg.Obs = obs.NewRegistry()
	on := Chaos("heavy", cfg)
	if off.LogSHA256 != on.LogSHA256 {
		t.Fatalf("tracing changed the delivery log: off=%s on=%s", off.LogSHA256, on.LogSHA256)
	}
	if spans := cfg.Obs.Spans(); spans.Len() == 0 {
		t.Fatal("traced run recorded no span hops")
	}
	if rep := obs.LatencyReport(cfg.Obs); len(rep) == 0 {
		t.Fatal("traced run recorded no delivery-latency histograms")
	}
}

// traceExport renders a small fleet run's span store as trace JSON.
func traceExport(t *testing.T, seed int64, phones, shards int) ([]byte, *obs.Registry, FleetResult) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg := smallFleet(seed, phones, shards)
	cfg.Obs = reg
	res := Fleet(cfg)
	if err := res.Err(); err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	var buf bytes.Buffer
	if err := obs.WriteTraceJSON(&buf, reg); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), reg, res
}

// TestFleetTraceDeterministicAcrossShards: the exported trace.json — every
// hop of every message's causal path, with simulated-clock timestamps — is
// byte-identical at 1, 2, and 4 shards. Shard workers race to record hops,
// but the export is a pure function of the hop set, so the layout cannot
// leak through. Valid only while nothing was evicted; the test pins that
// precondition.
func TestFleetTraceDeterministicAcrossShards(t *testing.T) {
	const seed, phones = 7, 60
	ref, refReg, refRes := traceExport(t, seed, phones, 1)
	if refReg.Spans().Dropped() != 0 {
		t.Fatalf("span ring overflowed (%d dropped); shrink the scenario", refReg.Spans().Dropped())
	}
	if refReg.Spans().Len() == 0 {
		t.Fatal("no span hops recorded")
	}
	for _, shards := range []int{2, 4} {
		got, reg, res := traceExport(t, seed, phones, shards)
		if reg.Spans().Dropped() != 0 {
			t.Fatalf("shards=%d: span ring overflowed", shards)
		}
		if res.LogSHA256 != refRes.LogSHA256 {
			t.Errorf("shards=%d: delivery log diverged", shards)
		}
		if !bytes.Equal(ref, got) {
			t.Errorf("shards=%d: trace.json differs from 1-shard export (%d vs %d bytes)",
				shards, len(got), len(ref))
		}
	}
}

// pinnedLatency is the per-topic delivery-latency SLO table of the chaos
// matrix at seed 1 and 50 phones, in seconds of simulated time. Every figure
// is read off simulated-clock span timestamps, so it is exact per seed: a
// drift means the delivery path's timing changed, and the table must be
// re-recorded deliberately.
var pinnedLatency = map[string][]obs.TopicLatency{
	"light": {
		{Channel: "cmd", Count: 150, P50: 0.032031250000000004, P95: 21.346153846153847, P99: 28.269230769230766},
		{Channel: "upload", Count: 1000, P50: 0.03056745182012848, P95: 15.326086956521738, P99: 28.369565217391305},
	},
	"medium": {
		{Channel: "cmd", Count: 150, P50: 0.16, P95: 53.57142857142857, P99: 114},
		{Channel: "upload", Count: 1000, P50: 0.18131313131313131, P95: 52.714285714285715, P99: 109.28571428571428},
	},
	"heavy": {
		{Channel: "cmd", Count: 150, P50: 36.31578947368421, P95: 695.4545454545455, P99: 859.090909090909},
		{Channel: "upload", Count: 1000, P50: 31.027397260273972, P95: 280.5988023952096, P99: 712.5},
	},
}

// TestLatencyPinned runs the chaos matrix with causal tracing attached, one
// fresh registry per level, and holds each level's per-topic latency report
// to pinnedLatency: counts exactly, quantiles to 1e-9 (rounding noise only).
func TestLatencyPinned(t *testing.T) {
	same := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9 }
	for _, sc := range ChaosScenarios(1) {
		reg := obs.NewRegistry()
		cfg := sc.Config
		cfg.Phones = 50
		cfg.Obs = reg
		if err := Chaos(sc.Name, cfg).Err(); err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		got, want := obs.LatencyReport(reg), pinnedLatency[sc.Name]
		if len(got) != len(want) {
			t.Errorf("%s: measured %d topics, pinned %d: %+v", sc.Name, len(got), len(want), got)
			continue
		}
		for i, g := range got {
			w := want[i]
			if g.Channel != w.Channel || g.Count != w.Count ||
				!same(g.P50, w.P50) || !same(g.P95, w.P95) || !same(g.P99, w.P99) {
				t.Errorf("%s/%s drifted: got %+v, pinned %+v", sc.Name, g.Channel, g, w)
			}
		}
	}
}
