package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"
)

// This file is the deterministic alerting engine: declarative rules evaluated
// against the registry on (simulated) clock ticks, driving a
// pending → firing → resolved state machine whose transition log is a pure
// function of the metric stream — and therefore of the seed.
//
// The paper argues the middleware must keep researchers informed of fleet
// health without polling individual phones (§3.2); the recorded metric stack
// (registry, ledger, series, spans) answers "what happened" but nothing
// evaluated it. Rules close that loop, and because evaluation happens at
// deterministic simulated instants against deterministic values, a same-seed
// chaos run produces a byte-identical alert log — alerts become something a
// scenario archive can pin, not just something a human glances at.
//
// Determinism contract:
//
//   - Evaluate is only ever called at instants from the driving clock
//     (Registry.Sample calls it after appending each series sample).
//   - Rules read the evaluation-time snapshot and the series store, never the
//     wall clock.
//   - Rules over real-clock quantities (barrier stall wall times, the runtime
//     sampler's gauges) are marked RealTime and are skipped entirely when the
//     engine is in deterministic mode, so they cannot leak wall-clock
//     nondeterminism into the log.

// AlertState is one state of a rule's alert lifecycle.
type AlertState int

const (
	// AlertInactive: the rule's condition does not hold.
	AlertInactive AlertState = iota
	// AlertPending: the condition holds but has not yet held For long.
	AlertPending
	// AlertFiring: the condition has held for at least For.
	AlertFiring
)

// String returns the lowercase state name used in logs and JSON.
func (s AlertState) String() string {
	switch s {
	case AlertPending:
		return "pending"
	case AlertFiring:
		return "firing"
	default:
		return "inactive"
	}
}

// RuleKind selects a rule's evaluation strategy.
type RuleKind string

const (
	// RuleThreshold compares the family's current value against Value.
	RuleThreshold RuleKind = "threshold"
	// RuleRate compares the family's per-second increase over the trailing
	// Window against Value.
	RuleRate RuleKind = "rate"
	// RuleAbsence holds when the family is missing from the registry, or when
	// its value has not changed across a fully covered trailing Window
	// (staleness — the "data stopped flowing" detector).
	RuleAbsence RuleKind = "absence"
	// RuleBurnRate holds when the SLO error-budget burn rate of a latency
	// histogram family exceeds Value: over the trailing Window, the fraction
	// of observations above Objective seconds, divided by Budget.
	RuleBurnRate RuleKind = "burn_rate"
)

// Rule is one declarative health check. Metric names a family (all label
// sets are summed) or a single canonical key (name{k=v}); which one is
// irrelevant to the evaluator — a family with one unlabeled series and a
// bare counter look the same.
type Rule struct {
	Name     string        `json:"name"`
	Severity string        `json:"severity"` // "warn" or "critical"
	Kind     RuleKind      `json:"kind"`
	Metric   string        `json:"metric"`
	Op       string        `json:"op,omitempty"`       // threshold/rate comparison; default ">"
	Value    float64       `json:"value"`              // threshold, rate/s, or burn factor
	Window   time.Duration `json:"window,omitempty"`   // rate/absence/burn trailing window
	For      time.Duration `json:"for,omitempty"`      // condition must hold this long to fire
	KeepFor  time.Duration `json:"keep_for,omitempty"` // flap suppression: stay firing until false this long
	// Burn-rate parameters.
	Objective float64 `json:"objective,omitempty"` // latency objective in seconds
	Budget    float64 `json:"budget,omitempty"`    // allowed bad fraction (error budget)
	// RealTime marks rules over wall-clock-derived metrics. They are skipped
	// in deterministic mode so seeded alert logs stay byte-identical.
	RealTime bool `json:"real_time,omitempty"`
}

// AlertEvent is one state transition in the alert log.
type AlertEvent struct {
	At       time.Time  `json:"at"`
	Rule     string     `json:"rule"`
	Severity string     `json:"severity"`
	State    AlertState `json:"-"`
	Value    float64    `json:"value"`
}

// MarshalState is the JSON face of State.
func (e AlertEvent) stateString() string {
	if e.State == AlertInactive {
		return "resolved"
	}
	return e.State.String()
}

// Line renders the event as one deterministic log line. Timestamps are the
// simulated instants evaluation ran at, so two same-seed runs render
// byte-identical lines.
func (e AlertEvent) Line() string {
	return fmt.Sprintf("%s %s %s severity=%s value=%s",
		e.At.UTC().Format(time.RFC3339Nano), e.stateString(), e.Rule,
		e.Severity, formatAlertNum(e.Value))
}

// AlertSnapshot is the externally visible state of one rule.
type AlertSnapshot struct {
	Rule     Rule       `json:"rule"`
	State    AlertState `json:"-"`
	StateStr string     `json:"state"`
	Since    time.Time  `json:"since,omitempty"` // pending/firing entry instant
	Value    float64    `json:"value"`           // last evaluated value
}

// UnmarshalJSON rehydrates State from the wire's state string, so clients
// (pogo-top, pogo-doctor) that decode /alerts get snapshots RenderAlerts and
// state comparisons work on directly.
func (s *AlertSnapshot) UnmarshalJSON(b []byte) error {
	type plain AlertSnapshot
	var p plain
	if err := json.Unmarshal(b, &p); err != nil {
		return err
	}
	*s = AlertSnapshot(p)
	switch s.StateStr {
	case "pending":
		s.State = AlertPending
	case "firing":
		s.State = AlertFiring
	default:
		s.State = AlertInactive
	}
	return nil
}

// ruleStatus is the per-rule state machine.
type ruleStatus struct {
	state        AlertState
	pendingSince time.Time
	firingSince  time.Time
	lastTrue     time.Time
	value        float64
}

// AlertEngine evaluates rules against a registry. Construct via
// Registry.Alerts; a nil engine is a valid no-op. All methods are safe for
// concurrent use, though deterministic drivers call Evaluate from a single
// goroutine (or parked at a barrier).
type AlertEngine struct {
	mu            sync.Mutex
	reg           *Registry
	rules         []Rule
	status        map[string]*ruleStatus
	log           []AlertEvent
	deterministic bool
	defaultLoaded bool
}

// Alerts returns the registry's alert engine (nil on a nil registry).
func (r *Registry) Alerts() *AlertEngine {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.alerts == nil {
		r.alerts = &AlertEngine{reg: r, status: make(map[string]*ruleStatus)}
	}
	return r.alerts
}

// SetDeterministic marks the engine as driven by a simulated clock: rules
// with RealTime set are skipped entirely, so the alert log stays a pure
// function of the seed. Live servers leave it false and evaluate everything.
func (e *AlertEngine) SetDeterministic(v bool) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.deterministic = v
	e.mu.Unlock()
}

// AddRules installs rules. A rule whose name is already installed replaces
// the definition but keeps the alert state (so re-wiring a shared registry is
// idempotent). Evaluation order is installation order — deterministic.
func (e *AlertEngine) AddRules(rules ...Rule) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, r := range rules {
		if r.Op == "" {
			r.Op = ">"
		}
		if r.Kind == "" {
			r.Kind = RuleThreshold
		}
		replaced := false
		for i := range e.rules {
			if e.rules[i].Name == r.Name {
				e.rules[i] = r
				replaced = true
				break
			}
		}
		if !replaced {
			e.rules = append(e.rules, r)
			e.status[r.Name] = &ruleStatus{}
		}
	}
}

// EnsureDefaultRules installs the default rule pack once. Safe to call from
// every wiring site that shares a registry.
func (e *AlertEngine) EnsureDefaultRules() {
	if e == nil {
		return
	}
	e.mu.Lock()
	loaded := e.defaultLoaded
	e.defaultLoaded = true
	e.mu.Unlock()
	if !loaded {
		e.AddRules(DefaultRules()...)
	}
}

// Rules returns a copy of the installed rules in evaluation order.
func (e *AlertEngine) Rules() []Rule {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Rule(nil), e.rules...)
}

// Rule returns the named rule and whether it is installed.
func (e *AlertEngine) Rule(name string) (Rule, bool) {
	if e == nil {
		return Rule{}, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, r := range e.rules {
		if r.Name == name {
			return r, true
		}
	}
	return Rule{}, false
}

// State returns the named rule's current alert state (AlertInactive and
// false when the rule is not installed).
func (e *AlertEngine) State(name string) (AlertState, bool) {
	if e == nil {
		return AlertInactive, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	st, ok := e.status[name]
	if !ok {
		return AlertInactive, false
	}
	return st.state, true
}

// Snapshot returns every rule's current state in evaluation order.
func (e *AlertEngine) Snapshot() []AlertSnapshot {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]AlertSnapshot, 0, len(e.rules))
	for _, r := range e.rules {
		st := e.status[r.Name]
		snap := AlertSnapshot{Rule: r, State: st.state, StateStr: st.state.String(), Value: st.value}
		switch st.state {
		case AlertPending:
			snap.Since = st.pendingSince
		case AlertFiring:
			snap.Since = st.firingSince
		}
		out = append(out, snap)
	}
	return out
}

// Firing returns the currently firing rules in evaluation order.
func (e *AlertEngine) Firing() []AlertSnapshot {
	var out []AlertSnapshot
	for _, s := range e.Snapshot() {
		if s.State == AlertFiring {
			out = append(out, s)
		}
	}
	return out
}

// Log returns a copy of the transition log in emission order.
func (e *AlertEngine) Log() []AlertEvent {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]AlertEvent(nil), e.log...)
}

// FormatLog renders the transition log as newline-terminated lines — the
// byte-identical-per-seed artifact scenario archives pin.
func (e *AlertEngine) FormatLog() string {
	var sb strings.Builder
	for _, ev := range e.Log() {
		sb.WriteString(ev.Line())
		sb.WriteByte('\n')
	}
	return sb.String()
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

// evaluate is the Sample-path entry: the snapshot was just taken at `at` and
// appended to the series store, so windows end exactly at this sample.
func (e *AlertEngine) evaluate(at time.Time, snap Snapshot) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var series []SeriesSample
	haveSeries := false
	for i := range e.rules {
		r := e.rules[i]
		if r.RealTime && e.deterministic {
			continue
		}
		if (r.Kind == RuleRate || r.Kind == RuleAbsence || r.Kind == RuleBurnRate) && !haveSeries {
			series = e.reg.Series().Samples()
			haveSeries = true
		}
		value, cond := evalRule(r, snap, series)
		e.step(at, r, value, cond)
	}
}

// step advances one rule's state machine and logs transitions.
func (e *AlertEngine) step(at time.Time, r Rule, value float64, cond bool) {
	st := e.status[r.Name]
	st.value = value
	emit := func(state AlertState) {
		ev := AlertEvent{At: at, Rule: r.Name, Severity: r.Severity, State: state, Value: value}
		e.log = append(e.log, ev)
		e.exportState(r, state)
	}
	if cond {
		st.lastTrue = at
		switch st.state {
		case AlertInactive:
			st.state = AlertPending
			st.pendingSince = at
			if r.For > 0 {
				emit(AlertPending)
			}
			fallthrough
		case AlertPending:
			if at.Sub(st.pendingSince) >= r.For {
				st.state = AlertFiring
				st.firingSince = at
				emit(AlertFiring)
			}
		}
		return
	}
	switch st.state {
	case AlertPending:
		// The condition lapsed before the alert fired: cancel silently, as
		// Prometheus does — the log records only pending/firing/resolved.
		st.state = AlertInactive
	case AlertFiring:
		// Flap suppression: hold the alert until the condition has been false
		// for KeepFor.
		if at.Sub(st.lastTrue) >= r.KeepFor {
			st.state = AlertInactive
			emit(AlertInactive)
		}
	}
}

// exportState mirrors the rule's state into a pogo_alert_firing gauge so
// /metrics carries ALERTS-style series and expect_metric can read them.
// Evaluation runs after the triggering sample was appended, so the gauge
// lands in the *next* sample — a one-tick lag, deterministic like the rest.
func (e *AlertEngine) exportState(r Rule, state AlertState) {
	g := e.reg.Gauge("pogo_alert_firing", L("rule", r.Name), L("severity", r.Severity))
	if state == AlertFiring {
		g.Set(1)
	} else {
		g.Set(0)
	}
}

// evalRule computes (value, condition) for one rule.
func evalRule(r Rule, snap Snapshot, series []SeriesSample) (float64, bool) {
	switch r.Kind {
	case RuleRate:
		rate := familyRate(series, r.Metric, r.Window)
		ok, err := alertCmp(r.Op, rate, r.Value)
		return rate, ok && err == nil
	case RuleAbsence:
		return evalAbsence(r, snap, series)
	case RuleBurnRate:
		burn := familyBurnRate(series, r.Metric, r.Window, r.Objective, r.Budget)
		factor := r.Value
		if factor == 0 {
			factor = 1
		}
		return burn, burn >= factor
	default: // RuleThreshold
		v, present := familyValue(snap, r.Metric)
		if !present {
			return 0, false
		}
		ok, err := alertCmp(r.Op, v, r.Value)
		return v, ok && err == nil
	}
}

// evalAbsence: condition holds when the family has never been registered, or
// when the trailing window is fully covered by samples and the family's value
// did not change across it.
func evalAbsence(r Rule, snap Snapshot, series []SeriesSample) (float64, bool) {
	cur, present := familyValue(snap, r.Metric)
	if !present {
		return 0, true
	}
	if r.Window <= 0 || len(series) == 0 {
		return cur, false
	}
	newest := series[len(series)-1]
	cutoff := newest.At.Add(-r.Window)
	// Baseline is the newest sample at or before the window start; without
	// one the store does not span the window yet (startup) — not stale.
	var baseline *SeriesSample
	for i := len(series) - 1; i >= 0; i-- {
		if !series[i].At.After(cutoff) {
			baseline = &series[i]
			break
		}
	}
	if baseline == nil {
		return cur, false
	}
	old, _ := sampleFamilyValue(*baseline, r.Metric)
	return cur, cur == old
}

// familyValue sums every snapshot series belonging to the family (exact key
// or name{...} prefixed). Histogram families contribute their observation
// counts. The bool reports whether any series matched.
func familyValue(snap Snapshot, family string) (float64, bool) {
	var total float64
	matched := false
	for k, v := range snap.Counters {
		if keyInFamily(k, family) {
			total += float64(v)
			matched = true
		}
	}
	for k, v := range snap.Gauges {
		if keyInFamily(k, family) {
			total += v
			matched = true
		}
	}
	for k, h := range snap.Histograms {
		if keyInFamily(k, family) {
			total += float64(h.Count)
			matched = true
		}
	}
	return total, matched
}

// sampleFamilyValue is familyValue over one stored series sample.
func sampleFamilyValue(s SeriesSample, family string) (float64, bool) {
	return familyValue(Snapshot{Counters: s.Counters, Gauges: s.Gauges, Histograms: s.Histograms}, family)
}

// keyInFamily reports whether canonical key k belongs to the family: the
// bare family name or any labeled variant of it.
func keyInFamily(k, family string) bool {
	if k == family {
		return true
	}
	return len(k) > len(family) && strings.HasPrefix(k, family) && k[len(family)] == '{'
}

// oldestInWindow returns the oldest sample at or after cutoff (nil if none).
func oldestInWindow(series []SeriesSample, cutoff time.Time) *SeriesSample {
	for i := range series {
		if !series[i].At.Before(cutoff) {
			return &series[i]
		}
	}
	return nil
}

// familyRate is the family's per-second increase over the trailing window,
// measured between the newest sample and the oldest in-window one. Zero with
// fewer than two distinct-instant samples in the window.
func familyRate(series []SeriesSample, family string, window time.Duration) float64 {
	if len(series) == 0 {
		return 0
	}
	newest := series[len(series)-1]
	oldest := oldestInWindow(series, newest.At.Add(-window))
	if oldest == nil || !newest.At.After(oldest.At) {
		return 0
	}
	nv, _ := sampleFamilyValue(newest, family)
	ov, _ := sampleFamilyValue(*oldest, family)
	return (nv - ov) / newest.At.Sub(oldest.At).Seconds()
}

// familyBurnRate computes the SLO burn rate of a latency histogram family
// over the trailing window: the fraction of in-window observations above
// objective seconds, divided by budget (the allowed bad fraction).
//
// Edge cases, pinned by tests: an empty window (no observations) burns 0; a
// zero budget burns +Inf the moment a single observation is bad, and 0 while
// none are.
func familyBurnRate(series []SeriesSample, family string, window time.Duration, objective, budget float64) float64 {
	if len(series) == 0 {
		return 0
	}
	newest := series[len(series)-1]
	oldest := oldestInWindow(series, newest.At.Add(-window))
	bad, total := familyBadCount(newest, family, objective)
	if oldest != nil && !newest.At.Equal(oldest.At) {
		ob, ot := familyBadCount(*oldest, family, objective)
		bad -= ob
		total -= ot
	}
	if total <= 0 {
		return 0
	}
	badFrac := float64(bad) / float64(total)
	if budget <= 0 {
		if bad > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return badFrac / budget
}

// familyBadCount sums (observations above objective, total observations)
// across the family's histograms in one sample. "Above objective" is
// resolved conservatively on bucket bounds: an observation counts as good
// only if its whole bucket is at or under the objective.
func familyBadCount(s SeriesSample, family string, objective float64) (bad, total int64) {
	for k, h := range s.Histograms {
		if !keyInFamily(k, family) {
			continue
		}
		var good int64
		for i, b := range h.Bounds {
			if b <= objective {
				good += h.Counts[i]
			}
		}
		bad += h.Count - good
		total += h.Count
	}
	return bad, total
}

// alertCmp mirrors the scenario DSL's comparison operators.
func alertCmp(op string, have, want float64) (bool, error) {
	switch op {
	case ">":
		return have > want, nil
	case ">=":
		return have >= want, nil
	case "<":
		return have < want, nil
	case "<=":
		return have <= want, nil
	case "==":
		return have == want, nil
	case "!=":
		return have != want, nil
	}
	return false, fmt.Errorf("unknown operator %q", op)
}

// formatAlertNum renders values without float noise; +Inf stays readable.
func formatAlertNum(f float64) string {
	if math.IsInf(f, 1) {
		return "+Inf"
	}
	if math.IsInf(f, -1) {
		return "-Inf"
	}
	if f == float64(int64(f)) {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// DefaultRules is the stock health pack: one rule per failure mode the stack
// already meters. Deterministic drivers (chaos, fleet, scenarios) load it via
// EnsureDefaultRules; live binaries do too, plus the RealTime rules actually
// evaluate there.
func DefaultRules() []Rule {
	return []Rule{
		{
			// The transport guarantees exactly-once in-order delivery; a
			// single observed violation is a page, immediately.
			Name: "exactly_once_violation", Severity: "critical",
			Kind: RuleThreshold, Metric: "delivery_violations_total",
			Op: ">", Value: 0,
			KeepFor: time.Minute,
		},
		{
			// Retransmission storm: sustained retry pressure across the
			// fleet's endpoints.
			Name: "retry_storm", Severity: "warn",
			Kind: RuleRate, Metric: "transport_retries_total",
			Op: ">", Value: 3, // retries/sec fleet-wide
			Window: time.Minute, For: 30 * time.Second, KeepFor: time.Minute,
		},
		{
			// Collector backpressure: outboxes piling up faster than the
			// fleet drains them.
			Name: "collector_backpressure", Severity: "warn",
			Kind: RuleThreshold, Metric: "outbox_pending",
			Op: ">", Value: 200,
			For: 15 * time.Second, KeepFor: time.Minute,
		},
		{
			// Switchboard offline queues growing: sessions are dying faster
			// than they resume.
			Name: "offline_queue_growth", Severity: "warn",
			Kind: RuleRate, Metric: "xmpp_server_queued_total",
			Op: ">", Value: 1, // queued stanzas/sec
			Window: time.Minute, For: 30 * time.Second, KeepFor: time.Minute,
		},
		{
			// Delivery-latency SLO burn: more than Budget of recent
			// deliveries took longer than Objective, at Value times the
			// sustainable rate.
			Name: "delivery_latency_slo", Severity: "critical",
			Kind: RuleBurnRate, Metric: "trace_delivery_latency_seconds",
			Objective: 15, Budget: 0.05, Value: 2,
			Window: 2 * time.Minute, For: 30 * time.Second, KeepFor: time.Minute,
		},
		{
			// Data flow stalled: the node stopped receiving anything for a
			// full window while up.
			Name: "data_flow_stalled", Severity: "warn",
			Kind: RuleAbsence, Metric: "transport_messages_received_total",
			Window: 5 * time.Minute, For: 0, KeepFor: 0,
		},
		{
			// Fleet epoch-barrier stall spikes: wall-clock load imbalance.
			// RealTime — skipped under deterministic evaluation.
			Name: "barrier_stall", Severity: "warn",
			Kind: RuleBurnRate, Metric: "fleet_barrier_stall_seconds",
			Objective: 0.5, Budget: 0.05, Value: 1,
			Window: 2 * time.Minute, For: 0, KeepFor: time.Minute,
			RealTime: true,
		},
	}
}

// WriteAlertsProm renders the engine in a Prometheus-flavoured text form:
// one ALERTS{alertname,severity,alertstate} sample per non-inactive rule
// (value 1), matching what a Prometheus server exposes for its own rules.
func (e *AlertEngine) WriteAlertsProm(w io.Writer) {
	fmt.Fprintf(w, "# HELP ALERTS Pogo alert rule states (pending or firing).\n# TYPE ALERTS gauge\n")
	for _, s := range e.Snapshot() {
		if s.State == AlertInactive {
			continue
		}
		fmt.Fprintf(w, "ALERTS{alertname=%q,severity=%q,alertstate=%q} 1\n",
			s.Rule.Name, s.Rule.Severity, s.State.String())
	}
}
