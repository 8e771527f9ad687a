package experiments

import (
	"strings"
	"testing"

	"pogo/internal/obs"
)

// chaosAlertLog runs the heavy chaos scenario with a fresh registry and
// returns the rendered alert transition log.
func chaosAlertLog(t *testing.T, seed int64) string {
	t.Helper()
	cfg := small(ChaosScenarios(seed)[2].Config) // heavy: churn + partitions + all faults
	cfg.Obs = obs.NewRegistry()
	res := Chaos("heavy", cfg)
	if err := res.Err(); err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	return cfg.Obs.Alerts().FormatLog()
}

// TestChaosAlertLogDeterministic is the alerting analogue of the delivery-log
// determinism contract: two same-seed chaos runs must produce byte-identical
// alert logs — every transition at the same simulated instant with the same
// value. make check runs this under -race, so it also proves alert
// evaluation is race-clean against the chaos stack.
func TestChaosAlertLogDeterministic(t *testing.T) {
	a := chaosAlertLog(t, 42)
	b := chaosAlertLog(t, 42)
	if a != b {
		t.Fatalf("same seed produced diverging alert logs:\n--- run A ---\n%s--- run B ---\n%s", a, b)
	}
	// The heavy scenario must actually exercise the rule pack: partitioned
	// phones recover tens of seconds late, burning the delivery SLO budget.
	// (The full-size retry storm is pinned by alert_storm.txtar; this shrunk
	// world is too small to sustain 3 retries/s.)
	if !strings.Contains(a, "firing delivery_latency_slo") {
		t.Fatalf("heavy chaos produced no delivery_latency_slo alert:\n%s", a)
	}
	// And every line must carry the fixed deterministic shape.
	for _, line := range strings.Split(strings.TrimSuffix(a, "\n"), "\n") {
		if line == "" {
			t.Fatal("empty alert log line")
		}
		fields := strings.Fields(line)
		if len(fields) != 5 {
			t.Fatalf("malformed alert log line %q", line)
		}
	}
}

// TestChaosAlertLogSeedsDiverge: different fault schedules must yield
// different transition timings — the log reflects the run, not the rules.
func TestChaosAlertLogSeedsDiverge(t *testing.T) {
	if chaosAlertLog(t, 1) == chaosAlertLog(t, 99) {
		t.Fatal("different seeds produced identical alert logs")
	}
}

// TestFleetAlertLogShardInvariant: alert evaluation in a fleet run happens at
// epoch barriers with every shard worker parked, so the alert log — like the
// delivery log — must be byte-identical at any shard count.
func TestFleetAlertLogShardInvariant(t *testing.T) {
	logs := make([]string, 0, 2)
	for _, shards := range []int{1, 2} {
		cfg := smallFleet(7, 40, shards)
		cfg.Obs = obs.NewRegistry()
		res := Fleet(cfg)
		if err := res.Err(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		logs = append(logs, cfg.Obs.Alerts().FormatLog())
	}
	if logs[0] != logs[1] {
		t.Fatalf("alert log differs across shard counts:\n--- shards=1 ---\n%s--- shards=2 ---\n%s", logs[0], logs[1])
	}
}

// TestChaosViolationCounterTracksScriptedDuplicate: the online exactly-once
// tracker must flag a duplicate delivery the moment it is recorded, so the
// exactly_once_violation rule can fire mid-run rather than at audit time.
func TestChaosViolationCounterTracksScriptedDuplicate(t *testing.T) {
	cfg := small(ChaosScenarios(3)[0].Config) // light faults: everything delivers
	cfg.Obs = obs.NewRegistry()
	w := NewChaosWorld(cfg)
	for k := 0; k < w.Rounds(); k++ {
		w.RunRound(k)
	}
	if got := cfg.Obs.CounterValue("delivery_violations_total", obs.L("kind", "duplicate")); got != 0 {
		t.Fatalf("clean run charged %d duplicate violations", got)
	}
	// Re-send phone00's first upload: the transport treats it as a fresh
	// message and delivers it, making the application-level stream see n=0
	// twice.
	if err := w.Enqueue(ChaosPhoneName(0), ChaosCollectorName, "upload", 0); err != nil {
		t.Fatal(err)
	}
	w.Drain()
	if got := cfg.Obs.CounterValue("delivery_violations_total", obs.L("kind", "duplicate")); got != 1 {
		t.Fatalf("duplicate violations = %d, want 1", got)
	}
	if st, _ := cfg.Obs.Alerts().State("exactly_once_violation"); st != obs.AlertFiring {
		t.Fatalf("exactly_once_violation state = %v, want firing", st)
	}
	res := w.Result("dup")
	if res.Duplicated != 1 {
		t.Fatalf("audit duplicated = %d, want 1 (online tracker and audit disagree)", res.Duplicated)
	}
}
