package pogo

// One benchmark per table and figure of the paper's evaluation (§5), plus
// the ablations. Each runs the same harness cmd/pogo-bench uses and reports
// the headline quantity as a custom metric, so `go test -bench=.` both
// regenerates the results and tracks the cost of regenerating them.
//
// Table 4 is benchmarked at reduced scale (two sessions, three days) to
// keep -bench runs in seconds; the full 24-day, 9-session experiment is
// `go run ./cmd/pogo-bench -run table4`.

import (
	"testing"
	"time"

	"pogo/internal/experiments"
	"pogo/internal/radio"
)

func BenchmarkTable2ProgramComplexity(b *testing.B) {
	b.ReportAllocs()
	var total int
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2()
		if err != nil {
			b.Fatal(err)
		}
		total = 0
		for _, r := range rows {
			total += r.SLOC
		}
	}
	b.ReportMetric(float64(total), "sloc")
}

func BenchmarkTable3PowerConsumption(b *testing.B) {
	b.ReportAllocs()
	var rows []experiments.Table3Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table3()
	}
	for _, r := range rows {
		b.ReportMetric(r.IncreasePct, r.Carrier+"-increase-%")
	}
}

func BenchmarkTable4Localization(b *testing.B) {
	b.ReportAllocs()
	days := 3
	dur := time.Duration(days) * 24 * time.Hour
	sessions := []experiments.SessionConfig{
		{User: "User 1", DeviceID: "dev1", Duration: dur, Seed: 101,
			Faults: []experiments.Fault{{Kind: experiments.FaultReboot, At: dur / 2}}},
		{User: "User 2", DeviceID: "dev2", Duration: dur, Seed: 102,
			Faults: []experiments.Fault{{Kind: experiments.FaultOffline, At: dur / 4, Until: dur * 7 / 8}}},
	}
	var res experiments.Table4Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table4(experiments.Table4Config{Seed: 1, Days: days, Sessions: sessions})
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(res.ReductionPct, "data-reduction-%")
	b.ReportMetric(float64(res.TotalScans), "scans")
	if len(res.Rows) > 0 {
		b.ReportMetric(res.Rows[0].MatchPct, "user1-match-%")
	}
}

func BenchmarkFigure3TailTrace(b *testing.B) {
	b.ReportAllocs()
	var f experiments.Figure3Result
	for i := 0; i < b.N; i++ {
		f = experiments.Figure3(radio.KPN)
	}
	b.ReportMetric(f.Marks.D.Sub(f.Marks.B).Seconds(), "tail-s")
	b.ReportMetric(f.TailEnergy, "tail-J")
}

func BenchmarkFigure4TailSyncTimeline(b *testing.B) {
	b.ReportAllocs()
	var f experiments.Figure4Result
	for i := 0; i < b.N; i++ {
		f = experiments.Figure4(16 * time.Minute)
	}
	pogoTx := 0
	for _, s := range f.Spans {
		if s.Name == "pogo-tx" {
			pogoTx++
		}
	}
	b.ReportMetric(float64(pogoTx), "pogo-tx-bursts")
}

func BenchmarkAblationFlushPolicies(b *testing.B) {
	b.ReportAllocs()
	var rows []experiments.FlushPolicyRow
	for i := 0; i < b.N; i++ {
		rows = experiments.AblationFlushPolicies()
	}
	for _, r := range rows {
		if r.Policy == "tail-sync (Pogo)" {
			b.ReportMetric(r.IncreasePct, "tailsync-increase-%")
		}
		if r.Policy == "immediate" {
			b.ReportMetric(r.IncreasePct, "immediate-increase-%")
		}
	}
}

func BenchmarkAblationDetectorPolling(b *testing.B) {
	b.ReportAllocs()
	var rows []experiments.DetectorPollingRow
	for i := 0; i < b.N; i++ {
		rows = experiments.AblationDetectorPolling()
	}
	b.ReportMetric(rows[1].Joules-rows[0].Joules, "alarm-penalty-J")
}

func BenchmarkAblationSensorGating(b *testing.B) {
	b.ReportAllocs()
	var rows []experiments.SensorGatingRow
	for i := 0; i < b.N; i++ {
		rows = experiments.AblationSensorGating()
	}
	b.ReportMetric(rows[1].Joules-rows[0].Joules, "gating-savings-J")
}

func BenchmarkAblationFreezeThaw(b *testing.B) {
	b.ReportAllocs()
	var rows []experiments.FreezeThawRow
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationFreezeThaw(2)
		if err != nil {
			b.Fatal(err)
		}
		rows = r
	}
	b.ReportMetric(rows[1].MatchPct-rows[0].MatchPct, "match-improvement-pp")
}

// BenchmarkFleet runs the sharded parallel fleet scenario at bench scale
// (200 phones — the full 2,000-phone sweep is `pogo-bench -run fleet`) and
// reports simulated-event throughput. Run with -cpu 1,4 to see the
// epoch-barrier engine scale with cores.
func BenchmarkFleet(b *testing.B) {
	b.ReportAllocs()
	shards := 4
	var res experiments.FleetResult
	for i := 0; i < b.N; i++ {
		cfg := experiments.FleetScenario(1, 200, shards)
		res = experiments.Fleet(cfg)
		if err := res.Err(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.EventsPerSec, "sim-events/s")
}
