// Command pogo-bench regenerates the paper's evaluation (§5): every table
// and figure, plus the ablations documented in DESIGN.md.
//
// Usage:
//
//	pogo-bench -run all
//	pogo-bench -run table3
//	pogo-bench -run table4 -days 24 -freeze
//
// Experiments run in simulated time; a full 24-day Table 4 takes a few
// minutes of wall clock.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"pogo/internal/experiments"
	"pogo/internal/obs"
	"pogo/internal/radio"
)

func main() {
	var (
		run        = flag.String("run", "all", "experiment: table2|table3|table4|figure3|figure4|ablations|all, or chaos / fleet / hotpath / latency (benchmarks, not part of all)")
		days       = flag.Int("days", 24, "table4: experiment length in days")
		seed       = flag.Int64("seed", 1, "table4 / chaos / fleet: world seed")
		phones     = flag.Int("phones", 0, "chaos / fleet: testbed size (0 = per-benchmark default: 50 chaos, 2000 fleet)")
		shards     = flag.Int("shards", 0, "fleet: highest shard count in the sweep (0 = up to 4, or NumCPU when larger)")
		fleetLog   = flag.String("fleet-log", "", "fleet: write the merged delivery log to this file (make fleet diffs two of these)")
		fleetScale = flag.String("fleet-scale", "", "fleet: comma-separated extra fleet sizes (e.g. 10000,100000) to record as scaling-curve rows")
		freeze     = flag.Bool("freeze", false, "table4: enable freeze/thaw state persistence (the post-paper fix)")
		stats      = flag.Bool("stats", false, "dump the full metrics registry after the experiments")
		csvDir     = flag.String("csv", "", "write accounting.csv, timeseries.csv, and ledger-derived table3.csv/table4.csv into this directory")
		gate       = flag.Bool("gate", false, "fleet / hotpath / latency: compare against the checked-in baseline instead of rewriting it; exit 1 on regression")
		traceOut   = flag.String("traceout", "", "chaos / fleet: write the last run's causal spans as Chrome/Perfetto trace JSON to this file")
		flightOut  = flag.String("flightout", "pogo-flight.json", "chaos: flight-recorder dump path, written when the delivery audit fails")
		sabotage   = flag.Bool("sabotage-drain", false, "chaos: disable the post-window drain so the audit genuinely fails — exercises the flight recorder")
		verifyFl   = flag.String("verify-flight", "", "load a flight-recorder dump, reassemble every span tree, and exit 0 only if all in-flight paths reconstruct")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the selected run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile taken after the selected run to this file")
	)
	flag.Parse()
	if *verifyFl != "" {
		if err := runVerifyFlight(*verifyFl); err != nil {
			fmt.Fprintln(os.Stderr, "pogo-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pogo-bench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "pogo-bench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	err := runExperiments(*run, *days, *seed, *phones, *shards, *fleetLog, *fleetScale, *traceOut, *flightOut, *sabotage, *freeze, *gate, *stats, *csvDir)
	if *memProfile != "" {
		runtime.GC() // settle the heap so the profile shows retained memory
		if f, ferr := os.Create(*memProfile); ferr != nil {
			fmt.Fprintln(os.Stderr, "pogo-bench:", ferr)
		} else {
			if werr := pprof.WriteHeapProfile(f); werr != nil {
				fmt.Fprintln(os.Stderr, "pogo-bench:", werr)
			}
			f.Close()
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pogo-bench:", err)
		if *cpuProfile != "" {
			pprof.StopCPUProfile()
		}
		os.Exit(1)
	}
}

func runExperiments(which string, days int, seed int64, phones, shards int, fleetLog, fleetScale, traceOut, flightOut string, sabotage, freeze, gate, stats bool, csvDir string) error {
	want := func(name string) bool { return which == "all" || which == name }
	ran := false
	reg := obs.NewRegistry()

	if which == "chaos" {
		if phones == 0 {
			phones = 50
		}
		return runChaos(seed, phones, traceOut, flightOut, sabotage)
	}
	if which == "fleet" {
		if gate {
			return gateFleetDiet(seed)
		}
		return runFleet(seed, phones, shards, fleetScale, fleetLog, traceOut)
	}
	if which == "hotpath" {
		return runHotpath(gate)
	}
	if which == "latency" {
		return runLatency(seed, phones, gate)
	}

	if want("table2") {
		ran = true
		rows, err := experiments.Table2()
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderTable2(rows))
	}
	if want("figure3") {
		ran = true
		fmt.Println(experiments.Figure3(radio.KPN).Render())
	}
	if want("figure4") {
		ran = true
		fmt.Println(experiments.Figure4(16 * time.Minute).Render())
	}
	if want("table3") {
		ran = true
		start := time.Now()
		rows := experiments.Table3Obs(reg)
		fmt.Println(experiments.RenderTable3(rows))
		fmt.Printf("(simulated 6 device-hours in %v)\n\n", time.Since(start).Round(time.Millisecond))
		printTable3Metrics(reg, rows)
		if csvDir != "" {
			if err := writeTable3CSV(csvDir, reg, rows); err != nil {
				return err
			}
		}
	}
	if want("table4") {
		ran = true
		start := time.Now()
		res, err := experiments.Table4(experiments.Table4Config{
			Seed: seed, Days: days, FreezeThaw: freeze, Obs: reg,
		})
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderTable4(res))
		fmt.Printf("(simulated %d days x 9 sessions in %v)\n\n", days, time.Since(start).Round(time.Second))
		if csvDir != "" {
			if err := writeTable4CSV(csvDir, reg, res); err != nil {
				return err
			}
		}
	}
	if want("ablations") {
		ran = true
		fmt.Println(experiments.RenderFlushPolicies(experiments.AblationFlushPolicies()))
		fmt.Println(experiments.RenderDetectorPolling(experiments.AblationDetectorPolling()))
		fmt.Println(experiments.RenderSensorGating(experiments.AblationSensorGating()))
		ftDays := 6
		if days < ftDays {
			ftDays = days
		}
		rows, err := experiments.AblationFreezeThaw(ftDays)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFreezeThaw(rows))
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want %s)", which,
			strings.Join([]string{"table2", "table3", "table4", "figure3", "figure4", "ablations", "all", "chaos", "fleet", "hotpath", "latency"}, "|"))
	}
	if stats {
		fmt.Println("metrics registry:")
		obs.WriteText(os.Stdout, reg)
	}
	if csvDir != "" {
		if err := writeLedgerCSVs(csvDir, reg); err != nil {
			return err
		}
		fmt.Printf("ledger CSVs written to %s\n", csvDir)
	}
	return nil
}

// writeLedgerCSVs dumps the full per-entity accounting and the simulated-time
// series. Both are byte-identical across same-seed runs (`make determinism`).
func writeLedgerCSVs(dir string, reg *obs.Registry) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf strings.Builder
	obs.WriteAccountingCSV(&buf, reg.Ledger())
	if err := os.WriteFile(filepath.Join(dir, "accounting.csv"), []byte(buf.String()), 0o644); err != nil {
		return err
	}
	buf.Reset()
	obs.WriteSeriesCSV(&buf, reg.Series())
	return os.WriteFile(filepath.Join(dir, "timeseries.csv"), []byte(buf.String()), 0o644)
}

// accountFor finds one ledger row in a snapshot.
func accountFor(snap []obs.AccountSnapshot, device, script, topic string) obs.AccountSnapshot {
	for _, a := range snap {
		if a.Device == device && a.Script == script && a.Topic == topic {
			return a
		}
	}
	return obs.AccountSnapshot{}
}

// closeEnough allows 1% relative drift between the ledger's energy figure and
// the experiment's own meter reading (they are integrated by independent code
// paths from the same simulated events).
func closeEnough(a, b float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	tol := 0.01 * b
	if tol < 0.01 {
		tol = 0.01
	}
	return diff <= tol
}

// writeTable3CSV regenerates the Table 3 rows purely from the per-entity
// ledger (entities "<carrier>/base" and "<carrier>/pogo") and cross-checks
// them against the rows the experiment computed from its own meters.
func writeTable3CSV(dir string, reg *obs.Registry, rows []experiments.Table3Row) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	snap := reg.Ledger().Snapshot()
	var sb strings.Builder
	sb.WriteString("carrier,without_pogo_j,with_pogo_j,increase_pct,uplink_bytes,tail_hits,tail_misses\n")
	match := "MATCH"
	for _, r := range rows {
		tag := strings.ToLower(r.Carrier)
		base := accountFor(snap, tag+"/base", "", "")
		with := accountFor(snap, tag+"/pogo", "", "")
		inc := 0.0
		if base.EnergyTotal > 0 {
			inc = 100 * (with.EnergyTotal - base.EnergyTotal) / base.EnergyTotal
		}
		fmt.Fprintf(&sb, "%s,%.3f,%.3f,%.2f,%d,%d,%d\n", r.Carrier,
			base.EnergyTotal, with.EnergyTotal, inc,
			with.UplinkBytes, with.TailHits, with.TailMisses)
		if !closeEnough(base.EnergyTotal, r.WithoutPogo) ||
			!closeEnough(with.EnergyTotal, r.WithPogo) ||
			with.UplinkBytes != r.UplinkBytes {
			match = "MISMATCH"
		}
	}
	fmt.Printf("table3 from ledger: %s vs experiment meters (1%% energy tolerance)\n", match)
	return os.WriteFile(filepath.Join(dir, "table3.csv"), []byte(sb.String()), 0o644)
}

// writeTable4CSV regenerates the §5.3 uplink-reduction row from the ledger:
// the counterfactual (dev, scan.js, wifi-scan-raw) uplink rows against the
// collector's actually-delivered "clusters" downlink bytes.
func writeTable4CSV(dir string, reg *obs.Registry, res experiments.Table4Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var raw, clustered int64
	for _, a := range reg.Ledger().Snapshot() {
		if a.Script == "scan.js" && a.Topic == "wifi-scan-raw" {
			raw += a.UplinkBytes
		}
		if a.Device == "collector" && a.Script == "" && a.Topic == "clusters" {
			clustered += a.DownlinkBytes
		}
	}
	reduction := 0.0
	if raw > 0 {
		reduction = 100 * (1 - float64(clustered)/float64(raw))
	}
	match := "MATCH"
	if !closeEnough(reduction, res.ReductionPct) {
		match = "MISMATCH"
	}
	fmt.Printf("table4 from ledger: reduction=%.1f%% (experiment reported %.1f%%) %s\n",
		reduction, res.ReductionPct, match)
	var sb strings.Builder
	sb.WriteString("raw_uplink_bytes,cluster_downlink_bytes,reduction_pct\n")
	fmt.Fprintf(&sb, "%d,%d,%.2f\n", raw, clustered, reduction)
	return os.WriteFile(filepath.Join(dir, "table4.csv"), []byte(sb.String()), 0o644)
}

// runChaos runs the seeded fault-injection scenario matrix and records
// BENCH_chaos.json. Everything — traffic, faults, churn, retries — runs in
// simulated time, so the printed report (and the JSON) is a pure function of
// the seed: `pogo-bench -run chaos -seed 1` twice gives byte-identical
// output. Not part of "all": it benchmarks the delivery path, not the paper.
//
// Each scenario runs with causal tracing attached (which by design cannot
// change the delivery log — trace IDs are assigned whether or not anyone
// watches). On an audit failure the span store is dumped to flightOut so the
// in-flight messages can be explained offline; with sabotage the post-window
// drain is disabled to force exactly that failure.
func runChaos(seed int64, phones int, traceOut, flightOut string, sabotage bool) error {
	scenarios := experiments.ChaosScenarios(seed)
	if sabotage {
		sc := scenarios[len(scenarios)-1]
		sc.Name = "sabotage"
		sc.Config.DrainIters = -1
		scenarios = []experiments.ChaosScenario{sc}
	}
	results := make([]experiments.ChaosResult, 0, len(scenarios))
	for _, sc := range scenarios {
		reg := obs.NewRegistry()
		sc.Config.Phones = phones
		sc.Config.Obs = reg
		res := experiments.Chaos(sc.Name, sc.Config)
		results = append(results, res)
		fmt.Printf("chaos %-6s seed=%d phones=%d: %d/%d delivered, lost=%d dup=%d ooo=%d, retries=%d, %.1f deliveries/sim-s\n",
			res.Scenario, res.Seed, res.Phones, res.Delivered, res.Expected,
			res.Lost, res.Duplicated, res.OutOfOrder, res.Retries, res.DeliveriesPerSec)
		fmt.Printf("  net: sent=%d dropped=%d duplicated=%d corrupted=%d delayed=%d partition_drops=%d disconnects=%d\n",
			res.NetSent, res.NetDropped, res.NetDuplicated, res.NetCorrupted,
			res.NetDelayed, res.PartitionDrops, res.Disconnects)
		fmt.Printf("  delivery log sha256: %s\n", res.LogSHA256)
		if res.Lost != 0 || res.Duplicated != 0 || res.OutOfOrder != 0 || res.Undrained != 0 {
			reason := fmt.Sprintf("chaos %s seed=%d audit failed: lost=%d dup=%d ooo=%d undrained=%d",
				res.Scenario, res.Seed, res.Lost, res.Duplicated, res.OutOfOrder, res.Undrained)
			dumpFlight(flightOut, reg, reason)
			return fmt.Errorf("chaos %s violated the delivery guarantee: lost=%d dup=%d ooo=%d undrained=%d",
				res.Scenario, res.Lost, res.Duplicated, res.OutOfOrder, res.Undrained)
		}
		if traceOut != "" {
			// Last scenario wins: with -traceout the written file holds the
			// final (heaviest) scenario's causal timeline.
			if err := writeTraceFile(traceOut, reg); err != nil {
				return err
			}
		}
	}
	if sabotage {
		return nil // a sabotage run proves the recorder; don't touch the baseline
	}
	b, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_chaos.json", append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("baseline written to BENCH_chaos.json")
	return nil
}

// printTable3Metrics summarizes the observability registry after the Table 3
// runs and cross-checks the phone's uplink-bytes counter against the totals
// the experiment reported through its own, independent code path.
func printTable3Metrics(reg *obs.Registry, rows []experiments.Table3Row) {
	var reported int64
	for _, r := range rows {
		reported += r.UplinkBytes
	}
	counted := reg.CounterValue("transport_bytes_sent_total", obs.L("node", "phone"))
	fmt.Println("end-of-run metrics (with-Pogo trials, all carriers):")
	for _, name := range []string{
		"pubsub_publishes_total",
		"transport_messages_sent_total",
		"transport_bytes_sent_total",
		"transport_flushes_total",
		"tailsync_piggyback_hits_total",
		"tailsync_piggyback_misses_total",
	} {
		fmt.Printf("  %-36s %d\n", name+"{node=phone}", reg.CounterValue(name, obs.L("node", "phone")))
	}
	match := "MATCH"
	if counted != reported {
		match = "MISMATCH"
	}
	fmt.Printf("uplink bytes: counter=%d reported=%d %s\n\n", counted, reported, match)
}
