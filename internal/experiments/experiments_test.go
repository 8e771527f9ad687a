package experiments

import (
	"strings"
	"testing"
	"time"

	"pogo/internal/radio"
)

func TestTable2ShapeMatchesPaper(t *testing.T) {
	rows, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	bySLOC := map[string]int{}
	locTotal, rogueTotal := 0, 0
	for _, r := range rows {
		bySLOC[r.File] = r.SLOC
		if r.App == "Localization example" {
			locTotal += r.SLOC
		} else {
			rogueTotal += r.SLOC
		}
		if r.Size <= 0 {
			t.Errorf("%s size = %d", r.File, r.Size)
		}
	}
	// Paper: clustering.js (155) dominates; localization ≈ 214 total;
	// RogueFinder ≈ 32; collector stub ≈ 5.
	if bySLOC["clustering.js"] < bySLOC["scan.js"]+bySLOC["collect.js"] {
		t.Errorf("clustering.js (%d) should dominate", bySLOC["clustering.js"])
	}
	if locTotal < 5*rogueTotal/2 {
		t.Errorf("localization (%d) vs roguefinder (%d): wrong ratio", locTotal, rogueTotal)
	}
	out := RenderTable2(rows)
	if !strings.Contains(out, "clustering.js") || !strings.Contains(out, "total") {
		t.Errorf("render:\n%s", out)
	}
}

func TestFigure3TailShape(t *testing.T) {
	f := Figure3(radio.KPN)
	// Paper's Figure 3 on KPN: b→c ≈ 6 s, c→d ≈ 53.5 s.
	if got := f.Marks.C.Sub(f.Marks.B); got != 6*time.Second {
		t.Errorf("b→c = %v", got)
	}
	if got := f.Marks.D.Sub(f.Marks.C); got != 53500*time.Millisecond {
		t.Errorf("c→d = %v", got)
	}
	if !f.Marks.A.Before(f.Marks.B) {
		t.Error("mark ordering wrong")
	}
	// Tail energy dominates the transmission itself.
	if f.TailEnergy < 3*f.ActiveEnergy {
		t.Errorf("tail %v J vs active %v J: tail must dominate", f.TailEnergy, f.ActiveEnergy)
	}
	out := f.Render()
	for _, want := range []string{"a (ramp-up start)", "b (tx end)", "c (DCH", "d (FACH", "mW"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("three 2x1h simulations")
	}
	rows := Table3()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Table3Row{}
	for _, r := range rows {
		byName[r.Carrier] = r
		// The paper's headline: Pogo's overhead is marginal, not tens of
		// percent. Allow the simulated substrate some slack.
		if r.IncreasePct < 0 || r.IncreasePct > 15 {
			t.Errorf("%s increase = %.2f%%, outside the paper's regime", r.Carrier, r.IncreasePct)
		}
		if r.PogoTails > 1 {
			t.Errorf("%s: Pogo generated %d own tails", r.Carrier, r.PogoTails)
		}
		// "these values were reported in batches of five".
		if r.BatchSize < 4 || r.BatchSize > 6 {
			t.Errorf("%s batch size = %.1f, want ≈5", r.Carrier, r.BatchSize)
		}
	}
	// KPN's long tail makes its baseline the highest (paper: 277 > 205 > 182)
	// and its relative increase the lowest (4.09 < 6.57 < 6.73).
	if !(byName["KPN"].WithoutPogo > byName["Vodafone"].WithoutPogo &&
		byName["Vodafone"].WithoutPogo > byName["T-Mobile"].WithoutPogo) {
		t.Errorf("baseline ordering wrong: %+v", rows)
	}
	if byName["KPN"].IncreasePct >= byName["T-Mobile"].IncreasePct {
		t.Errorf("KPN increase (%.2f) should be below T-Mobile (%.2f)",
			byName["KPN"].IncreasePct, byName["T-Mobile"].IncreasePct)
	}
	out := RenderTable3(rows)
	if !strings.Contains(out, "KPN") || !strings.Contains(out, "Vodafone") {
		t.Errorf("render:\n%s", out)
	}
}

func TestFigure4Synchronization(t *testing.T) {
	f := Figure4(16 * time.Minute)
	emails := 0
	pogoTx := 0
	for _, s := range f.Spans {
		switch s.Name {
		case "email":
			emails++
		case "pogo-tx":
			pogoTx++
		}
	}
	if emails < 2 {
		t.Fatalf("emails = %d in 16 min", emails)
	}
	if pogoTx == 0 {
		t.Fatal("no pogo transmissions")
	}
	// Every pogo transmission must fall inside (or within 5 s of) an email
	// window — that is the synchronization claim.
	for _, p := range f.Spans {
		if p.Name != "pogo-tx" {
			continue
		}
		ok := false
		for _, e := range f.Spans {
			if e.Name != "email" {
				continue
			}
			if !p.Start.Before(e.Start.Add(-5*time.Second)) && !p.Start.After(e.End.Add(5*time.Second)) {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("pogo tx at %v not synchronized with any email window", p.Start)
		}
	}
	out := f.Render()
	for _, want := range []string{"cpu", "email", "pogo-tx", "#"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestPowerTrialDeliversEverything(t *testing.T) {
	r := runPowerTrial(powerTrialConfig{Carrier: radio.KPN, WithPogo: true, Duration: 20 * time.Minute})
	if r.ReportsDelivered < 18 {
		t.Errorf("delivered %d of ~20 reports", r.ReportsDelivered)
	}
	if r.EmailChecks != 4 {
		t.Errorf("email checks = %d in 20 min", r.EmailChecks)
	}
	if r.Joules <= 0 || r.Breakdown["modem"] <= 0 {
		t.Errorf("energy accounting empty: %v %v", r.Joules, r.Breakdown)
	}
	if r.DeliveryDelayMean <= 0 || r.DeliveryDelayMean > 6*time.Minute {
		t.Errorf("mean delay = %v", r.DeliveryDelayMean)
	}
}

func TestTable4SmallRun(t *testing.T) {
	// The canonical shrunk workload: User A reboots halfway, User B's long
	// offline stretch ages part of the backlog past the 24 h purge. The
	// scenario DSL's `table4` command runs this same config.
	days := 3
	res, err := Table4(SmallTable4Config(1, days))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		// ~1 scan/min around the clock.
		if r.Scans < days*1300 || r.Scans > days*1500 {
			t.Errorf("%s scans = %d", r.User, r.Scans)
		}
		if r.Locations < days*2 {
			t.Errorf("%s locations = %d", r.User, r.Locations)
		}
		if r.PartialPct < r.MatchPct {
			t.Errorf("%s partial (%v) < match (%v)", r.User, r.PartialPct, r.MatchPct)
		}
		if r.MatchPct < 40 || r.PartialPct < 60 {
			t.Errorf("%s quality too low: match=%v partial=%v", r.User, r.MatchPct, r.PartialPct)
		}
	}
	// User B lost a day of messages to the 24 h purge: its match must be
	// visibly below User A's.
	if res.Rows[1].MatchPct >= res.Rows[0].MatchPct {
		t.Errorf("offline user (%v) should lose clusters vs %v",
			res.Rows[1].MatchPct, res.Rows[0].MatchPct)
	}
	// The headline: on-line clustering reduces transfer volume drastically
	// (paper: 98.3%).
	if res.ReductionPct < 90 {
		t.Errorf("reduction = %.1f%%", res.ReductionPct)
	}
	out := RenderTable4(res)
	if !strings.Contains(out, "User A") || !strings.Contains(out, "reduced by") {
		t.Errorf("render:\n%s", out)
	}
}

func TestTable4Deterministic(t *testing.T) {
	run := func() SessionResult {
		res, err := Table4(Table4Config{
			Seed: 5, Days: 1,
			Sessions: []SessionConfig{{
				User: "U", DeviceID: "d", Duration: 24 * time.Hour, Seed: 301,
				Faults: []Fault{{Kind: FaultReboot, At: 11 * time.Hour}},
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0]
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("non-deterministic Table 4:\n%+v\n%+v", a, b)
	}
}

func TestAblationFreezeThawImprovesQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("two multi-day sessions")
	}
	rows, err := AblationFreezeThaw(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	noFreeze, withFreeze := rows[0], rows[1]
	if withFreeze.MatchPct < noFreeze.MatchPct {
		t.Errorf("freeze/thaw did not help: %v vs %v", withFreeze.MatchPct, noFreeze.MatchPct)
	}
	out := RenderFreezeThaw(rows)
	if !strings.Contains(out, "freeze/thaw") {
		t.Errorf("render:\n%s", out)
	}
}

func TestAblationDetectorPolling(t *testing.T) {
	rows := AblationDetectorPolling()
	sleepRow, alarmRow := rows[0], rows[1]
	// Alarm polling keeps the CPU essentially always awake: vastly more
	// uptime and joules, for the same detection coverage.
	if alarmRow.CPUUptime < 10*sleepRow.CPUUptime {
		t.Errorf("uptime: alarms %v vs sleep %v", alarmRow.CPUUptime, sleepRow.CPUUptime)
	}
	if alarmRow.Joules < sleepRow.Joules+100 {
		t.Errorf("energy: alarms %v vs sleep %v", alarmRow.Joules, sleepRow.Joules)
	}
	if sleepRow.TailsCaught == 0 {
		t.Error("sleep strategy caught nothing")
	}
	out := RenderDetectorPolling(rows)
	if !strings.Contains(out, "RTC alarms") {
		t.Errorf("render:\n%s", out)
	}
}

func TestAblationSensorGating(t *testing.T) {
	rows := AblationSensorGating()
	gated, always := rows[0], rows[1]
	if always.Samples < 50 {
		t.Errorf("always-on samples = %d", always.Samples)
	}
	if always.Joules < gated.Joules+20 {
		t.Errorf("gating saved nothing: %v vs %v", gated.Joules, always.Joules)
	}
	out := RenderSensorGating(rows)
	if !strings.Contains(out, "always-on") {
		t.Errorf("render:\n%s", out)
	}
}

func TestAblationFlushPolicies(t *testing.T) {
	if testing.Short() {
		t.Skip("five 1 h simulations")
	}
	rows := AblationFlushPolicies()
	byName := map[string]FlushPolicyRow{}
	for _, r := range rows {
		byName[r.Policy] = r
	}
	tailSync := byName["tail-sync (Pogo)"]
	immediate := byName["immediate"]
	hourly := byName["interval 1h"]
	// Immediate flushing costs far more energy than tail-sync.
	if immediate.Joules < tailSync.Joules*1.1 {
		t.Errorf("immediate (%v J) should cost well above tail-sync (%v J)",
			immediate.Joules, tailSync.Joules)
	}
	// Hourly flushing is cheap but slow; tail-sync delivers much faster.
	if hourly.DeliveryDelay < 2*tailSync.DeliveryDelay {
		t.Errorf("delay: hourly %v vs tail-sync %v", hourly.DeliveryDelay, tailSync.DeliveryDelay)
	}
	if tailSync.PogoTails > 1 {
		t.Errorf("tail-sync caused %d own tails", tailSync.PogoTails)
	}
	out := RenderFlushPolicies(rows)
	if !strings.Contains(out, "tail-sync") {
		t.Errorf("render:\n%s", out)
	}
}
