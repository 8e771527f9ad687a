package obs

import (
	"math"
	"strings"
	"testing"
	"time"
)

// Two registries built with the same metrics in different registration and
// label orders must render identical Prometheus text: families sorted by
// name, series sorted by canonical key, label order normalized away.
func TestPromSnapshotOrderingDeterministic(t *testing.T) {
	build := func(flipped bool) *Registry {
		r := NewRegistry()
		if flipped {
			r.Counter("zeta_total", L("node", "b"), L("role", "phone")).Add(7)
			r.Counter("zeta_total", L("role", "phone"), L("node", "a")).Add(3)
			r.Gauge("beta_level", L("node", "n")).Set(1.5)
			r.Counter("alpha_total").Inc()
		} else {
			r.Counter("alpha_total").Inc()
			r.Gauge("beta_level", L("node", "n")).Set(1.5)
			r.Counter("zeta_total", L("node", "a"), L("role", "phone")).Add(3)
			r.Counter("zeta_total", L("node", "b"), L("role", "phone")).Add(7)
		}
		r.Meter("dev2", "s.js", "").AddSteps(10)
		r.Meter("dev1", "", "chan").AddUplink(100)
		return r
	}
	var a, b strings.Builder
	writeProm(&a, build(false))
	writeProm(&b, build(true))
	if a.String() != b.String() {
		t.Fatalf("registration/label order changed prom output:\n--- a ---\n%s\n--- b ---\n%s", a.String(), b.String())
	}
	out := a.String()
	ia := strings.Index(out, "alpha_total ")
	ib := strings.Index(out, "beta_level{")
	iza := strings.Index(out, `zeta_total{node="a",role="phone"} 3`)
	izb := strings.Index(out, `zeta_total{node="b",role="phone"} 7`)
	if ia < 0 || ib < 0 || iza < 0 || izb < 0 {
		t.Fatalf("missing expected series in prom output:\n%s", out)
	}
	if !(ia < ib && ib < iza && iza < izb) {
		t.Fatalf("families/series not sorted: alpha@%d beta@%d zeta(a)@%d zeta(b)@%d", ia, ib, iza, izb)
	}
}

// Label order must not create distinct series: the canonical key sorts
// labels, so both spellings charge the same counter.
func TestLabeledMetricOrderInsensitive(t *testing.T) {
	r := NewRegistry()
	r.Counter("m_total", L("b", "2"), L("a", "1")).Add(4)
	r.Counter("m_total", L("a", "1"), L("b", "2")).Add(6)
	if got := r.CounterValue("m_total", L("b", "2"), L("a", "1")); got != 10 {
		t.Fatalf("label order split the series: got %d, want 10", got)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 1 {
		t.Fatalf("expected 1 canonical series, got %d: %v", len(snap.Counters), snap.Counters)
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	// Empty histogram: every quantile is NaN.
	var empty HistogramSnapshot
	for _, q := range []float64{0, 0.5, 1} {
		if !math.IsNaN(empty.quantile(q)) {
			t.Fatalf("empty.Quantile(%v) = %v, want NaN", q, empty.quantile(q))
		}
	}

	r := NewRegistry()
	h := r.Histogram("lat_seconds", []float64{1, 2, 4})

	// NaN observations are dropped, not booked.
	h.Observe(math.NaN())
	if s := r.Snapshot().Histograms["lat_seconds"]; s.Count != 0 {
		t.Fatalf("NaN observation was counted: %+v", s)
	}

	// Single sample in bucket (1,2]: interpolation stays inside the bucket
	// and q=1 reaches the bucket's upper edge.
	h.Observe(1.5)
	s := r.Snapshot().Histograms["lat_seconds"]
	if got := s.quantile(0.5); got <= 1 || got > 2 {
		t.Fatalf("single-sample Quantile(0.5) = %v, want in (1, 2]", got)
	}
	if got := s.quantile(1); got != 2 {
		t.Fatalf("single-sample Quantile(1) = %v, want 2", got)
	}

	// q outside [0,1] and q=NaN are invalid.
	for _, q := range []float64{-0.1, 1.1, math.NaN()} {
		if !math.IsNaN(s.quantile(q)) {
			t.Fatalf("Quantile(%v) = %v, want NaN", q, s.quantile(q))
		}
	}

	// A sample in the +Inf overflow bucket clamps to the largest finite
	// bound — there is no upper edge to interpolate toward.
	h.Observe(100)
	s = r.Snapshot().Histograms["lat_seconds"]
	if got := s.quantile(1); got != 4 {
		t.Fatalf("+Inf-bucket Quantile(1) = %v, want largest finite bound 4", got)
	}

	// No finite bounds at all: nothing to clamp to.
	noBounds := HistogramSnapshot{Count: 1, Counts: []int64{1}}
	if !math.IsNaN(noBounds.quantile(0.5)) {
		t.Fatalf("bound-less Quantile(0.5) = %v, want NaN", noBounds.quantile(0.5))
	}
}

// Ledger snapshots sort by (device, script, topic) regardless of charge
// order, and every Meter method tolerates a nil receiver so call sites
// never branch on whether accounting is enabled.
func TestLedgerSnapshotSortedAndNilSafe(t *testing.T) {
	l := newLedger()
	l.Meter("dev2", "b.js", "").AddSteps(1)
	l.Meter("dev1", "", "chan").AddUplink(10)
	l.Meter("dev1", "a.js", "").AddEnergy("cpu", 0.5)
	l.Meter("dev1", "", "").AddDownlink(20)

	snap := l.Snapshot()
	var keys []string
	for _, s := range snap {
		keys = append(keys, s.Device+"|"+s.Script+"|"+s.Topic)
	}
	want := []string{"dev1||", "dev1||chan", "dev1|a.js|", "dev2|b.js|"}
	if len(keys) != len(want) {
		t.Fatalf("got %d rows %v, want %v", len(keys), keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("row %d = %q, want %q (full: %v)", i, keys[i], want[i], keys)
		}
	}

	var nilLedger *Ledger
	m := nilLedger.Meter("d", "s", "t") // nil Meter
	m.AddEnergy("dch", 1)
	m.AddUplink(1)
	m.AddDownlink(1)
	m.AddMessages(1)
	m.AddWake(1)
	m.AddSteps(1)
	m.AddDeadlineExceeded(1)
	m.AddTailHit(1)
	m.AddTailMiss(1)
	if got := nilLedger.Snapshot(); got != nil {
		t.Fatalf("nil ledger snapshot = %v, want nil", got)
	}
}

// The series ring evicts oldest-first and counts what it dropped.
func TestSeriesRingEvictionAndRate(t *testing.T) {
	s := newSeriesStore(3)
	base := time.Unix(1000, 0).UTC()
	for i := 0; i < 5; i++ {
		s.append(seriesSample{
			At:       base.Add(time.Duration(i) * time.Second),
			Counters: map[string]int64{"c": int64(i * 10)},
		})
	}
	if s.Len() != 3 || s.droppedSamples() != 2 {
		t.Fatalf("len=%d dropped=%d, want 3 and 2", s.Len(), s.droppedSamples())
	}
	all := s.samples()
	if !all[0].At.Equal(base.Add(2*time.Second)) || !all[2].At.Equal(base.Add(4*time.Second)) {
		t.Fatalf("ring did not evict oldest-first: %v .. %v", all[0].At, all[2].At)
	}
}

// Two identically charged registries export byte-identical accounting and
// time-series CSVs — the property table3.txtar pins end to end.
func TestCSVExportDeterministic(t *testing.T) {
	build := func(flipped bool) *Registry {
		r := NewRegistry()
		charges := []func(){
			func() { r.Meter("phone", "scan.js", "").AddSteps(500) },
			func() { r.Meter("phone", "", "wifi-scan").AddMessages(3) },
			func() {
				m := r.Meter("phone", "", "")
				m.AddEnergy("dch", 1.25)
				m.AddEnergy("fach", 0.5)
				m.AddUplink(2048)
			},
		}
		if flipped {
			for i := len(charges) - 1; i >= 0; i-- {
				charges[i]()
			}
		} else {
			for _, c := range charges {
				c()
			}
		}
		at := time.Unix(2000, 0).UTC()
		r.Sample(at, "phone")
		r.Sample(at.Add(time.Minute), "phone")
		return r
	}
	r1, r2 := build(false), build(true)
	var a1, a2, s1, s2 strings.Builder
	WriteAccountingCSV(&a1, r1.Ledger())
	WriteAccountingCSV(&a2, r2.Ledger())
	if a1.String() != a2.String() {
		t.Fatalf("accounting CSV depends on charge order:\n--- a ---\n%s\n--- b ---\n%s", a1.String(), a2.String())
	}
	WriteSeriesCSV(&s1, r1.Series())
	WriteSeriesCSV(&s2, r2.Series())
	if s1.String() != s2.String() {
		t.Fatalf("series CSV depends on charge order:\n--- a ---\n%s\n--- b ---\n%s", s1.String(), s2.String())
	}
	if !strings.HasPrefix(a1.String(), "device,script,topic,state,") {
		t.Fatalf("unexpected accounting CSV header: %q", strings.SplitN(a1.String(), "\n", 2)[0])
	}
}

// RenderTop must work from a cold start (nil previous snapshot, zero dt)
// and order rows by energy spent.
func TestRenderTopColdStart(t *testing.T) {
	cur := []AccountSnapshot{
		{Entity: Entity{Device: "dev1"}, EnergyTotal: 1.0, UplinkBytes: 10},
		{Entity: Entity{Device: "dev2"}, EnergyTotal: 5.0, UplinkBytes: 20, Messages: 4},
	}
	out := RenderTop(nil, cur, 0)
	i1, i2 := strings.Index(out, "dev1"), strings.Index(out, "dev2")
	if i1 < 0 || i2 < 0 {
		t.Fatalf("missing devices in rendering:\n%s", out)
	}
	if i2 > i1 {
		t.Fatalf("rows not sorted by energy (dev2 should lead):\n%s", out)
	}
	if !strings.Contains(out, "ENERGY") {
		t.Fatalf("missing header:\n%s", out)
	}
}
