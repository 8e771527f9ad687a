package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// metricDef names one reported metric.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd lists what a user of the system would see, in BENCHMARK.json's
// order. Their bounds live in BENCHMARK.json, the single place they are
// fixed. The share of failed messages is carried by the result's
// attempted/failed counts: any failure makes the run incorrect.
var endToEnd = []metricDef{
	{"delivered_per_s", "1/s", "higher"},
	{"allocs_per_msg", "count", "lower"},
	{"alloc_bytes_per_msg", "B", "lower"},
	{"uplink_bytes_per_msg", "B", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer lists the per-layer metrics: the traced pass's six segments and
// the median they add up to, counts from the nodes' public stats, and the
// layer probes.
var perLayer = []metricDef{
	{segmentNames[0], "us", "lower"},
	{segmentNames[1], "us", "lower"},
	{segmentNames[2], "us", "lower"},
	{segmentNames[3], "us", "lower"},
	{segmentNames[4], "us", "lower"},
	{segmentNames[5], "us", "lower"},
	{"harness.traced_latency_p50_us", "us", "lower"},
	{"harness.trace_overhead_pct", "%", "lower"},
	{"harness.latency_p99_ms", "ms", "lower"},
	{"harness.gen_late_p50_ms", "ms", "lower"},
	{"harness.gen_late_p99_ms", "ms", "lower"},
	{"harness.cpu_us_per_msg", "us", "lower"},
	{"harness.unattributed_pct", "%", "lower"},
	{"transport.msgs_per_flush", "count", "higher"},
	{"transport.retries", "count", "lower"},
	{"transport.duplicates", "count", "lower"},
	{"xmpp.reconnects", "count", "lower"},
	{"sched.order_violations", "count", "lower"},
	{"msg.encode_us", "us", "lower"},
	{"msg.decode_us", "us", "lower"},
	{"msg.decode_allocs", "count", "lower"},
	{"msg.body_bytes", "B", "lower"},
	{"pubsub.publish_us", "us", "lower"},
	{"script.handler_us", "us", "lower"},
	{"script.handler_allocs", "count", "lower"},
	{"store.add_ack_us", "us", "lower"},
	{"store.disk_bytes_per_msg", "B", "lower"},
	{"store.pending_us", "us", "lower"},
	{"store.replay_ms_per_10k", "ms", "lower"},
	{"transport.roundtrip_us", "us", "lower"},
	{"transport.roundtrip_allocs", "count", "lower"},
	{"xmpp.roundtrip_us", "us", "lower"},
	{"xmpp.stanzas_per_s", "1/s", "higher"},
	{"xmpp.connect_ms", "ms", "lower"},
	{"sched.hop_us", "us", "lower"},
	{"sched.hop_device_us", "us", "lower"},
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult keeps exactly the metrics defs names, in their declared units.
func newResult(defs []metricDef, values map[string]float64, attempted, failed int64) (*result, error) {
	r := &result{
		Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return r, nil
}

// printTable writes the metrics in declaration order, one per line.
func (r *result) printTable(w io.Writer, defs []metricDef) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-32s %14.4f %-6s (%s is better)\n", d.name, r.Metrics[d.name].Value, d.unit, d.better)
	}
}

// benchmarkFile is the part of BENCHMARK.json the comparison needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareSets prints, per workload and end-to-end metric, both sets' values,
// how much worse the second is than the first as a share of the first, and
// the bound; it reports whether every metric stayed within its bound.
func compareSets(w io.Writer, bf *benchmarkFile, names []string, first, second map[string]*result) bool {
	ok := true
	for _, wl := range names {
		a, b := first[wl], second[wl]
		fmt.Fprintf(w, "%s\n", wl)
		if a.Failed != 0 || b.Failed != 0 {
			fmt.Fprintf(w, "  failed: %d of %d, then %d of %d  EXCEEDED (any failure)\n", a.Failed, a.Attempted, b.Failed, b.Attempted)
			ok = false
		}
		for _, m := range bf.EndToEnd {
			va, vb := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = (va - vb) / va
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = "EXCEEDED"
				ok = false
			}
			fmt.Fprintf(w, "  %-24s %14.4f %14.4f %-6s worse by %+7.2f%%  bound %5.1f%%  %s\n",
				m.Name, va, vb, m.Unit, 100*worse, 100*m.Bound, verdict)
		}
	}
	return ok
}
