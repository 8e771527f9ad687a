package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("msgs_total", L("node", "a"))
	c.Inc()
	c.Add(4)
	if got := c.value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	// Same name+labels (any label order) is the same instrument.
	if r.Counter("msgs_total", L("node", "a")) != c {
		t.Error("re-registration returned a different counter")
	}
	c2 := r.Counter("msgs_total", L("node", "b"))
	if c2 == c {
		t.Error("different labels shared an instrument")
	}
	if got := r.CounterValue("msgs_total", L("node", "a")); got != 5 {
		t.Errorf("CounterValue = %d", got)
	}
	if got := r.CounterValue("absent"); got != 0 {
		t.Errorf("absent CounterValue = %d", got)
	}

	g := r.Gauge("temp")
	g.Set(2.5)
	g.Add(-1)
	if got := g.value(); got != 1.5 {
		t.Errorf("gauge = %v", got)
	}
}

func TestLabelKeyCanonical(t *testing.T) {
	a := key("m", []Label{L("b", "2"), L("a", "1")})
	b := key("m", []Label{L("a", "1"), L("b", "2")})
	if a != b || a != "m{a=1,b=2}" {
		t.Errorf("keys %q vs %q", a, b)
	}
	if key("m", nil) != "m" {
		t.Error("unlabeled key")
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(3)
	if c.value() != 0 {
		t.Error("nil counter accumulated")
	}
	g := r.Gauge("y")
	g.Set(1)
	g.Add(1)
	if g.value() != 0 {
		t.Error("nil gauge accumulated")
	}
	h := r.Histogram("z", DefBuckets)
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram accumulated")
	}
	sp := r.Spans()
	sp.Record(time.Time{}, 1, StagePublish, "n", "ch", 0, "")
	if sp.Hops() != nil || sp.Len() != 0 || sp.Dropped() != 0 {
		t.Error("nil span store recorded")
	}
	cancel := r.OnCollect(func() {})
	cancel()
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Error("nil snapshot not empty")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 2, 10, 99, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Sum() != 0.5+1+2+10+99+1000 {
		t.Errorf("sum = %v", h.Sum())
	}
	snap := r.Snapshot().Histograms["lat"]
	// Upper-bound inclusive: ≤1 → bucket0, ≤10 → bucket1, ≤100 → bucket2, rest +Inf.
	want := []int64{2, 2, 1, 1}
	for i, n := range want {
		if snap.Counts[i] != n {
			t.Errorf("bucket[%d] = %d, want %d (all: %v)", i, snap.Counts[i], n, snap.Counts)
		}
	}
}

func TestOnCollectRunsAtSnapshot(t *testing.T) {
	r := NewRegistry()
	calls := 0
	cancel := r.OnCollect(func() {
		calls++
		r.Gauge("pulled").Set(float64(calls))
	})
	s := r.Snapshot()
	if calls != 1 || s.Gauges["pulled"] != 1 {
		t.Errorf("calls=%d gauges=%v", calls, s.Gauges)
	}
	cancel()
	r.Snapshot()
	if calls != 1 {
		t.Error("hook ran after cancel")
	}
}

// TestConcurrentHotPaths exercises the atomic paths under -race.
func TestConcurrentHotPaths(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			c := r.Counter("c", L("node", "x"))
			g := r.Gauge("g")
			h := r.Histogram("h", DefBuckets)
			sp := r.Spans()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(j % 7))
				sp.Record(time.Time{}, TraceID(n+1), StageSend, "n", "ch", uint64(j), "")
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				r.Snapshot()
				r.Spans().Hops()
			}
		}()
	}
	wg.Wait()
	if got := r.CounterValue("c", L("node", "x")); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := r.Gauge("g").value(); got != 8000 {
		t.Errorf("gauge = %v, want 8000", got)
	}
	if got := r.Histogram("h", DefBuckets).Count(); got != 8000 {
		t.Errorf("histogram count = %d", got)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("transport_bytes_sent_total", L("node", "phone")).Add(123)
	h := Handler(r)

	get := func(path string) string {
		req := httptest.NewRequest("GET", path, nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w.Body.String()
	}

	prom := get("/metrics")
	for _, want := range []string{
		"# TYPE transport_bytes_sent_total counter",
		"# HELP transport_bytes_sent_total",
		`transport_bytes_sent_total{node="phone"} 123`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q:\n%s", want, prom)
		}
	}

	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/metrics.json")), &snap); err != nil {
		t.Fatalf("bad /metrics.json JSON: %v", err)
	}
	if snap.Counters["transport_bytes_sent_total{node=phone}"] != 123 {
		t.Errorf("metrics = %+v", snap.Counters)
	}

	r.Meter("phone", "gsm.js", "battery").AddUplink(45)
	var acct struct {
		Accounts []AccountSnapshot `json:"accounts"`
	}
	if err := json.Unmarshal([]byte(get("/accounting")), &acct); err != nil {
		t.Fatalf("bad /accounting JSON: %v", err)
	}
	if len(acct.Accounts) != 1 || acct.Accounts[0].UplinkBytes != 45 || acct.Accounts[0].Script != "gsm.js" {
		t.Errorf("accounting = %+v", acct.Accounts)
	}

	r.Sample(time.Date(2012, 6, 1, 0, 1, 0, 0, time.UTC), "test")
	var ts struct {
		Dropped uint64         `json:"dropped"`
		Samples []seriesSample `json:"samples"`
	}
	if err := json.Unmarshal([]byte(get("/timeseries")), &ts); err != nil {
		t.Fatalf("bad /timeseries JSON: %v", err)
	}
	if len(ts.Samples) != 1 || ts.Samples[0].Counters["transport_bytes_sent_total{node=phone}"] != 123 {
		t.Errorf("timeseries = %+v", ts.Samples)
	}

	// An empty store must still answer with an array, never null.
	if body := get("/trace"); !strings.Contains(body, `"hops": []`) {
		t.Errorf("empty /trace = %s, want \"hops\": []", body)
	}
	r.Spans().Record(time.Date(2012, 6, 1, 0, 0, 5, 0, time.UTC), 1, StagePublish, "phone", "battery", 0, "fanout=1")
	r.Spans().Record(time.Date(2012, 6, 1, 0, 0, 6, 0, time.UTC), 2, StagePublish, "phone", "wifi", 0, "fanout=0")
	var trace struct {
		Dropped uint64 `json:"dropped"`
		Hops    []Hop  `json:"hops"`
	}
	if err := json.Unmarshal([]byte(get("/trace")), &trace); err != nil {
		t.Fatalf("bad /trace JSON: %v", err)
	}
	if len(trace.Hops) != 2 {
		t.Errorf("trace hops = %d", len(trace.Hops))
	}
	if err := json.Unmarshal([]byte(get("/trace?channel=battery")), &trace); err != nil {
		t.Fatal(err)
	}
	if len(trace.Hops) != 1 || trace.Hops[0].Channel != "battery" || trace.Hops[0].Trace != 1 {
		t.Errorf("filtered trace = %+v", trace.Hops)
	}

	stats := get("/stats")
	if !strings.Contains(stats, "transport_bytes_sent_total{node=phone}") || !strings.Contains(stats, "123") {
		t.Errorf("stats dump:\n%s", stats)
	}
}
