package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"pogo/internal/msg"
)

// TestSmoke sends every workload through the real stack for well under a
// second per pass — the reference pass, the traced pass and the layer
// probes — with the audit on.
func TestSmoke(t *testing.T) {
	measure := 1200 * time.Millisecond
	if testing.Short() {
		measure = 600 * time.Millisecond
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			dir := t.TempDir()
			res, err := runPerLayer(wl, 1, measure, dir, dir, prober{2 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("audit: correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Fatalf("%d per-layer metrics, want %d", len(res.Metrics), len(perLayer))
			}
			var sum float64
			for _, name := range segmentNames {
				sum += res.Metrics[name].Value
			}
			if lat := res.Metrics["harness.traced_latency_p50_us"].Value; lat <= 0 || math.Abs(sum-lat) > 0.25*lat {
				t.Errorf("segments sum to %.1f us, traced median latency is %.1f us", sum, lat)
			}
			// The decorator must keep the endpoint on its batched path: a
			// buffered round leaves in one envelope, not one per message.
			if per := res.Metrics["transport.msgs_per_flush"].Value; wl.mode == batchLoop && per < batchRound/2 {
				t.Errorf("batch_drain sent %.1f messages per flush, want about %d", per, batchRound)
			}
			if _, err := os.Stat(dir + "/trace-" + wl.name + ".json"); err != nil {
				t.Errorf("trace dump: %v", err)
			}
		})
	}
}

// TestEndToEndResult checks the untraced run's result line: every
// end-to-end metric present, positive, and the audit clean.
func TestEndToEndResult(t *testing.T) {
	wl, err := workloadByName("stream_paced")
	if err != nil {
		t.Fatal(err)
	}
	res, err := runEndToEnd(wl, 2, 500*time.Millisecond, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("audit failed: %+v", res)
	}
	for _, d := range endToEnd {
		if v := res.Metrics[d.name]; v.Value <= 0 || v.Unit != d.unit {
			t.Errorf("%s = %+v, want a positive value in %s", d.name, v, d.unit)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", keys)
	}
}

// corpusDigest hashes a workload's generated messages for both phones.
func corpusDigest(t *testing.T, wl *workload, seed int64) string {
	t.Helper()
	h := sha256.New()
	for phone := 0; phone < numPhones; phone++ {
		for _, m := range wl.phoneCorpus(seed, phone) {
			b, err := msg.EncodeBinary(m)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCorpusDeterministic pins the generated messages: the same seed must
// give byte-identical inputs on every run and every commit, or results
// stop being comparable.
func TestCorpusDeterministic(t *testing.T) {
	pinned := map[string]string{
		"stream_sat":    "8f44c44f8fbf6bfa295c5f80e102f8e5569bf243a43cec349c57dd86e1eaec48",
		"stream_paced":  "8f44c44f8fbf6bfa295c5f80e102f8e5569bf243a43cec349c57dd86e1eaec48",
		"scan_pipeline": "ef905b0bf52b8b62450640086b4564b9daf61c18e04f214d3d9534777decf11e",
		"batch_drain":   "8f44c44f8fbf6bfa295c5f80e102f8e5569bf243a43cec349c57dd86e1eaec48",
	}
	for _, wl := range workloads {
		a, b := corpusDigest(t, wl, 1), corpusDigest(t, wl, 1)
		if a != b {
			t.Errorf("%s: seed 1 generated two different corpora", wl.name)
		}
		if corpusDigest(t, wl, 2) == a {
			t.Errorf("%s: seeds 1 and 2 generated the same corpus", wl.name)
		}
		if a != pinned[wl.name] {
			t.Errorf("%s: corpus digest for seed 1 is %s, pinned %s", wl.name, a, pinned[wl.name])
		}
	}
}

// TestBenchmarkFile keeps BENCHMARK.json and the harness in step: the
// same workloads, metrics, units and directions, and bounds within the
// contract's limit.
func TestBenchmarkFile(t *testing.T) {
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(bf.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if bf.Workloads[i].Name != wl.name || bf.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, harness has %s: %s", i, bf.Workloads[i], wl.name, wl.why)
		}
	}
	var e2e, layers []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end differs:\n file    %v\n harness %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer differs:\n file    %v\n harness %v", layers, perLayer)
	}
}

func TestParseLine(t *testing.T) {
	for _, c := range []struct {
		line   string
		origin string
		seq    int
		ok     bool
	}{
		{"phone-0 17", "phone-0", 17, true},
		{`phone-1 204 {"aps":{}}`, "phone-1", 204, true},
		{"phone-0", "", 0, false},
		{"phone-0 ", "", 0, false},
		{"phone-0 1e+06", "", 0, false},
	} {
		origin, seq, ok := parseLine(c.line)
		if origin != c.origin || seq != c.seq || ok != c.ok {
			t.Errorf("parseLine(%q) = %q, %d, %v; want %q, %d, %v", c.line, origin, seq, ok, c.origin, c.seq, c.ok)
		}
	}
}

// TestCompareSets checks that a metric worse by more than its bound, in
// its own direction, fails the comparison, and that a failed audit does.
func TestCompareSets(t *testing.T) {
	bf := &benchmarkFile{}
	if err := json.Unmarshal([]byte(`{"end_to_end":[
		{"name":"delivered_per_s","unit":"1/s","better":"higher","bound":0.1},
		{"name":"latency_p50_ms","unit":"ms","better":"lower","bound":0.1}]}`), bf); err != nil {
		t.Fatal(err)
	}
	set := func(rate, lat float64, failed int64) map[string]*result {
		return map[string]*result{"w": {Correct: failed == 0, Attempted: 100, Failed: failed, Metrics: map[string]metricValue{
			"delivered_per_s": {rate, "1/s"}, "latency_p50_ms": {lat, "ms"},
		}}}
	}
	for _, c := range []struct {
		name   string
		second map[string]*result
		ok     bool
	}{
		{"within bounds", set(950, 1.05, 0), true},
		{"better is never worse", set(2000, 0.2, 0), true},
		{"throughput fell", set(880, 1, 0), false},
		{"latency rose", set(1000, 1.2, 0), false},
		{"audit failed", set(1000, 1, 1), false},
	} {
		var out bytes.Buffer
		if got := compareSets(&out, bf, []string{"w"}, set(1000, 1, 0), c.second); got != c.ok {
			t.Errorf("%s: compareSets = %v, want %v\n%s", c.name, got, c.ok, out.String())
		}
	}
}
