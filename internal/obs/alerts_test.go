package obs

import (
	"math"
	"strings"
	"testing"
	"time"
)

var alertT0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// tick samples the registry at t0+offset, which drives one alert evaluation.
func tick(r *Registry, offset time.Duration) {
	r.Sample(alertT0.Add(offset), "test")
}

func requireState(t *testing.T, e *AlertEngine, rule string, want AlertState) {
	t.Helper()
	got, ok := e.State(rule)
	if !ok {
		t.Fatalf("rule %q not installed", rule)
	}
	if got != want {
		t.Fatalf("rule %q: state = %v, want %v", rule, got, want)
	}
}

func TestAlertThresholdLifecycle(t *testing.T) {
	r := NewRegistry()
	e := r.Alerts()
	e.addRules(Rule{
		Name: "backlog", Severity: "warn",
		Kind: ruleThreshold, Metric: "pending", Op: ">", Value: 10,
		For: 20 * time.Second,
	})

	g := r.Gauge("pending")
	g.Set(5)
	tick(r, 0)
	requireState(t, e, "backlog", AlertInactive)

	// Condition starts holding: pending, then firing once For has elapsed.
	g.Set(50)
	tick(r, 10*time.Second)
	requireState(t, e, "backlog", AlertPending)
	tick(r, 20*time.Second)
	requireState(t, e, "backlog", AlertPending) // 10s elapsed < For
	tick(r, 30*time.Second)
	requireState(t, e, "backlog", AlertFiring) // 20s elapsed == For

	// Condition clears; KeepFor is zero, so it resolves immediately.
	g.Set(0)
	tick(r, 40*time.Second)
	requireState(t, e, "backlog", AlertInactive)

	var states []string
	for _, ev := range e.eventLog() {
		states = append(states, ev.stateString())
	}
	want := []string{"pending", "firing", "resolved"}
	if len(states) != len(want) {
		t.Fatalf("log states = %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("log states = %v, want %v", states, want)
		}
	}
}

func TestAlertPendingLapsesSilently(t *testing.T) {
	r := NewRegistry()
	e := r.Alerts()
	e.addRules(Rule{
		Name: "blip", Severity: "warn",
		Kind: ruleThreshold, Metric: "pending", Op: ">", Value: 10,
		For: time.Minute,
	})
	g := r.Gauge("pending")
	g.Set(50)
	tick(r, 0)
	requireState(t, e, "blip", AlertPending)
	g.Set(0)
	tick(r, 10*time.Second)
	requireState(t, e, "blip", AlertInactive)
	// The lapse must not appear as "resolved": only firing alerts resolve.
	for _, ev := range e.eventLog() {
		if ev.stateString() == "resolved" || ev.stateString() == "firing" {
			t.Fatalf("unexpected %s event for an alert that never fired", ev.stateString())
		}
	}
}

func TestAlertFlapSuppression(t *testing.T) {
	r := NewRegistry()
	e := r.Alerts()
	e.addRules(Rule{
		Name: "flappy", Severity: "warn",
		Kind: ruleThreshold, Metric: "pending", Op: ">", Value: 10,
		KeepFor: time.Minute, // For: 0 — fires on first true tick
	})
	g := r.Gauge("pending")
	g.Set(50)
	tick(r, 0)
	requireState(t, e, "flappy", AlertFiring)

	// Condition flaps false/true/false inside KeepFor: alert must stay
	// firing with no resolved/refire churn in the log.
	g.Set(0)
	tick(r, 20*time.Second)
	requireState(t, e, "flappy", AlertFiring)
	g.Set(50)
	tick(r, 40*time.Second)
	requireState(t, e, "flappy", AlertFiring)
	g.Set(0)
	tick(r, 60*time.Second)
	requireState(t, e, "flappy", AlertFiring) // only 20s since last true

	// False for a full KeepFor: now it resolves.
	tick(r, 100*time.Second)
	requireState(t, e, "flappy", AlertInactive)

	if got := len(e.eventLog()); got != 2 { // firing + resolved, nothing between
		t.Fatalf("flap produced %d log events, want 2:\n%s", got, e.FormatLog())
	}
}

func TestAlertRateRule(t *testing.T) {
	r := NewRegistry()
	e := r.Alerts()
	e.addRules(Rule{
		Name: "storm", Severity: "warn",
		Kind: ruleRate, Metric: "retries_total",
		Op: ">", Value: 2, Window: time.Minute,
	})
	c := r.Counter("retries_total", L("node", "a"))
	c2 := r.Counter("retries_total", L("node", "b"))
	tick(r, 0)
	requireState(t, e, "storm", AlertInactive)

	// 300 retries across the family in 60s → 5/s > 2/s.
	c.Add(200)
	c2.Add(100)
	tick(r, time.Minute)
	requireState(t, e, "storm", AlertFiring)

	// No further increase over the next window → rate back to 0.
	tick(r, 2*time.Minute)
	requireState(t, e, "storm", AlertInactive)
}

func TestAlertAbsenceRule(t *testing.T) {
	r := NewRegistry()
	e := r.Alerts()
	e.addRules(Rule{
		Name: "stalled", Severity: "warn",
		Kind: ruleAbsence, Metric: "received_total", Window: time.Minute,
	})

	// Family never registered: absent from the very first evaluation.
	tick(r, 0)
	requireState(t, e, "stalled", AlertFiring)

	// Metric appears and moves: resolves.
	c := r.Counter("received_total")
	c.Add(1)
	tick(r, 10*time.Second)
	requireState(t, e, "stalled", AlertInactive)

	// Keeps moving: stays resolved even once the window is covered.
	c.Add(1)
	tick(r, 40*time.Second)
	c.Add(1)
	tick(r, 70*time.Second)
	requireState(t, e, "stalled", AlertInactive)

	// Goes quiet: once a full window passes with no change, stale again.
	tick(r, 100*time.Second)
	requireState(t, e, "stalled", AlertInactive) // window spans 40s..100s; value moved at 70s
	tick(r, 140*time.Second)
	requireState(t, e, "stalled", AlertFiring) // 70s..140s: no change
}

func TestBurnRateEdgeCases(t *testing.T) {
	bounds := []float64{1, 5, 15, 60}
	mk := func(counts []int64, count int64) HistogramSnapshot {
		return HistogramSnapshot{Count: count, Bounds: bounds, Counts: counts}
	}
	sample := func(at time.Time, h HistogramSnapshot) seriesSample {
		return seriesSample{At: at, Histograms: map[string]HistogramSnapshot{"lat{channel=x}": h}}
	}

	// Empty window: no observations at all → burn 0, not NaN.
	empty := []seriesSample{sample(alertT0, mk([]int64{0, 0, 0, 0, 0}, 0))}
	if got := familyBurnRate(empty, "lat", time.Minute, 15, 0.05); got != 0 {
		t.Fatalf("empty window burn = %v, want 0", got)
	}
	// No samples at all.
	if got := familyBurnRate(nil, "lat", time.Minute, 15, 0.05); got != 0 {
		t.Fatalf("no-samples burn = %v, want 0", got)
	}

	// 10 observations, 1 above the 15s objective, budget 5%:
	// badFrac 0.1 / 0.05 = burn 2.
	one := []seriesSample{sample(alertT0, mk([]int64{5, 3, 1, 1, 0}, 10))}
	if got := familyBurnRate(one, "lat", time.Minute, 15, 0.05); got != 2 {
		t.Fatalf("burn = %v, want 2", got)
	}

	// Zero budget: any bad observation is an infinite burn...
	if got := familyBurnRate(one, "lat", time.Minute, 15, 0); !math.IsInf(got, 1) {
		t.Fatalf("zero-budget burn = %v, want +Inf", got)
	}
	// ...but a perfect window burns 0 even with no budget.
	good := []seriesSample{sample(alertT0, mk([]int64{5, 3, 2, 0, 0}, 10))}
	if got := familyBurnRate(good, "lat", time.Minute, 15, 0); got != 0 {
		t.Fatalf("zero-budget clean burn = %v, want 0", got)
	}

	// Windowed: older cumulative sample subtracted, so only the delta counts.
	// Old: 10 obs, 1 bad. New: 20 obs, 6 bad. Window delta: 10 obs, 5 bad.
	windowed := []seriesSample{
		sample(alertT0, mk([]int64{5, 3, 1, 1, 0}, 10)),
		sample(alertT0.Add(30*time.Second), mk([]int64{8, 4, 2, 5, 1}, 20)),
	}
	got := familyBurnRate(windowed, "lat", time.Minute, 15, 0.05)
	if want := (5.0 / 10.0) / 0.05; got != want {
		t.Fatalf("windowed burn = %v, want %v", got, want)
	}
}

func TestBurnRateRuleLifecycle(t *testing.T) {
	r := NewRegistry()
	e := r.Alerts()
	e.addRules(Rule{
		Name: "slo", Severity: "critical",
		Kind: ruleBurnRate, Metric: "lat",
		Objective: 15, Budget: 0.05, Value: 2, Window: 2 * time.Minute,
	})
	h := r.Histogram("lat", []float64{1, 5, 15, 60}, L("channel", "x"))
	for i := 0; i < 9; i++ {
		h.Observe(1)
	}
	tick(r, 0)
	requireState(t, e, "slo", AlertInactive) // 0 bad / 9

	h.Observe(59) // 1 bad of 10 → burn 2 ≥ 2
	tick(r, 30*time.Second)
	requireState(t, e, "slo", AlertFiring)
}

func TestAlertRealTimeSkippedWhenDeterministic(t *testing.T) {
	r := NewRegistry()
	e := r.Alerts()
	e.SetDeterministic(true)
	e.addRules(Rule{
		Name: "wall", Severity: "warn",
		Kind: ruleThreshold, Metric: "stall", Op: ">", Value: 0,
		RealTime: true,
	})
	r.Gauge("stall").Set(99)
	tick(r, 0)
	requireState(t, e, "wall", AlertInactive)
	if len(e.eventLog()) != 0 {
		t.Fatalf("real-time rule logged events in deterministic mode:\n%s", e.FormatLog())
	}

	e.SetDeterministic(false)
	tick(r, time.Second)
	requireState(t, e, "wall", AlertFiring)
}

func TestAlertLogLinesAndFiringGauge(t *testing.T) {
	r := NewRegistry()
	e := r.Alerts()
	e.addRules(Rule{
		Name: "x", Severity: "critical",
		Kind: ruleThreshold, Metric: "v", Op: ">", Value: 0,
	})
	r.Gauge("v").Set(3)
	tick(r, 0)

	log := e.FormatLog()
	want := "2026-01-01T00:00:00Z firing x severity=critical value=3\n"
	if log != want {
		t.Fatalf("log = %q, want %q", log, want)
	}
	snap := r.Snapshot()
	if got := snap.Gauges[Key("pogo_alert_firing", L("rule", "x"), L("severity", "critical"))]; got != 1 {
		t.Fatalf("pogo_alert_firing = %v, want 1", got)
	}

	r.Gauge("v").Set(0)
	tick(r, time.Second)
	snap = r.Snapshot()
	if got := snap.Gauges[Key("pogo_alert_firing", L("rule", "x"), L("severity", "critical"))]; got != 0 {
		t.Fatalf("pogo_alert_firing after resolve = %v, want 0", got)
	}
}

func TestAlertRuleReplaceKeepsState(t *testing.T) {
	r := NewRegistry()
	e := r.Alerts()
	e.addRules(Rule{Name: "a", Kind: ruleThreshold, Metric: "v", Op: ">", Value: 0})
	r.Gauge("v").Set(1)
	tick(r, 0)
	requireState(t, e, "a", AlertFiring)

	// Re-adding (re-wiring a shared registry) must not reset the state.
	e.addRules(Rule{Name: "a", Kind: ruleThreshold, Metric: "v", Op: ">", Value: 0, Severity: "warn"})
	requireState(t, e, "a", AlertFiring)
	if got := e.Rules(); len(got) != 1 || got[0].Severity != "warn" {
		t.Fatalf("rule definition not replaced: %+v", got)
	}
}

func TestEnsureDefaultRulesIdempotent(t *testing.T) {
	r := NewRegistry()
	e := r.Alerts()
	e.EnsureDefaultRules()
	n := len(e.Rules())
	if n == 0 {
		t.Fatal("no default rules installed")
	}
	e.EnsureDefaultRules()
	if got := len(e.Rules()); got != n {
		t.Fatalf("EnsureDefaultRules not idempotent: %d then %d rules", n, got)
	}
}

func TestNilAlertEngineSafe(t *testing.T) {
	var e *AlertEngine
	e.addRules(Rule{Name: "x"})
	e.EnsureDefaultRules()
	e.SetDeterministic(true)
	e.Evaluate(alertT0)
	if e.Rules() != nil || e.eventLog() != nil || e.snapshot() != nil {
		t.Fatal("nil engine returned non-nil data")
	}
	if _, ok := e.State("x"); ok {
		t.Fatal("nil engine reported a rule state")
	}
	var r *Registry
	if r.Alerts() != nil {
		t.Fatal("nil registry returned an engine")
	}
}

func TestWriteAlertsProm(t *testing.T) {
	r := NewRegistry()
	e := r.Alerts()
	e.addRules(
		Rule{Name: "hot", Severity: "critical", Kind: ruleThreshold, Metric: "v", Op: ">", Value: 0},
		Rule{Name: "cold", Severity: "warn", Kind: ruleThreshold, Metric: "v", Op: "<", Value: -1},
	)
	r.Gauge("v").Set(5)
	tick(r, 0)
	var sb strings.Builder
	e.writeAlertsProm(&sb)
	out := sb.String()
	if !strings.Contains(out, `ALERTS{alertname="hot",severity="critical",alertstate="firing"} 1`) {
		t.Fatalf("missing firing sample:\n%s", out)
	}
	if strings.Contains(out, "cold") {
		t.Fatalf("inactive rule exposed:\n%s", out)
	}
}
