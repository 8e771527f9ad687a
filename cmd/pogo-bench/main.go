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
	"errors"
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
		run        = flag.String("run", "all", "experiment: table2|table3|table4|figure3|figure4|ablations|all, or chaos / fleet (benchmarks, not part of all)")
		days       = flag.Int("days", 24, "table4: experiment length in days")
		seed       = flag.Int64("seed", 1, "table4 / chaos / fleet: world seed")
		phones     = flag.Int("phones", 0, "chaos / fleet: testbed size (0 = per-benchmark default: 50 chaos, 2000 fleet)")
		shards     = flag.Int("shards", 0, "fleet: highest shard count in the sweep (0 = up to 4, or NumCPU when larger)")
		fleetLog   = flag.String("fleet-log", "", "fleet: write the merged delivery log to this file")
		fleetScale = flag.String("fleet-scale", "", "fleet: comma-separated extra fleet sizes (e.g. 10000,100000) to record as scaling-curve rows")
		freeze     = flag.Bool("freeze", false, "table4: enable freeze/thaw state persistence (the post-paper fix)")
		stats      = flag.Bool("stats", false, "dump the full metrics registry after the experiments")
		csvDir     = flag.String("csv", "", "write accounting.csv, timeseries.csv, and ledger-derived table3.csv/table4.csv into this directory")
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
	err := runExperiments(*run, *days, *seed, *phones, *shards, *fleetLog, *fleetScale, *traceOut, *flightOut, *sabotage, *freeze, *stats, *csvDir)
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

func runExperiments(which string, days int, seed int64, phones, shards int, fleetLog, fleetScale, traceOut, flightOut string, sabotage, freeze, stats bool, csvDir string) error {
	want := func(name string) bool { return which == "all" || which == name }
	ran := false
	reg := obs.NewRegistry()
	// A table whose ledger does not match still prints, and so do the
	// tables after it; the run then fails with every mismatch.
	var ledgerErr error

	if which == "chaos" {
		if phones == 0 {
			phones = 50
		}
		return runChaos(seed, phones, traceOut, flightOut, sabotage)
	}
	if which == "fleet" {
		return runFleet(seed, phones, shards, fleetScale, fleetLog, traceOut)
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
		printTable3Metrics(reg)
		lt, err := checkTable3Ledger(reg, rows)
		ledgerErr = errors.Join(ledgerErr, err)
		if csvDir != "" {
			if err := writeTable3CSV(csvDir, lt); err != nil {
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
		lt, err := experiments.CrossCheckLedger(reg, nil, &res)
		fmt.Printf("table4 from ledger: reduction=%.1f%% (experiment reported %.1f%%) %s\n",
			lt.ReductionPct, res.ReductionPct, verdict(err))
		ledgerErr = errors.Join(ledgerErr, err)
		if csvDir != "" {
			if err := writeTable4CSV(csvDir, lt); err != nil {
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
			strings.Join([]string{"table2", "table3", "table4", "figure3", "figure4", "ablations", "all", "chaos", "fleet"}, "|"))
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
	return ledgerErr
}

// checkTable3Ledger cross-checks Table 3's rows against the ledger in reg,
// prints the uplink byte counts and the verdict, and returns the mismatch.
func checkTable3Ledger(reg *obs.Registry, rows []experiments.Table3Row) (experiments.LedgerTables, error) {
	lt, err := experiments.CrossCheckLedger(reg, rows, nil)
	fmt.Printf("uplink bytes: counter=%d reported=%d\n", lt.UplinkCounter, lt.UplinkReported)
	fmt.Printf("table3 from ledger vs experiment meters (1%% energy tolerance, bytes exact): %s\n\n", verdict(err))
	return lt, err
}

// writeLedgerCSVs dumps the full per-entity accounting and the simulated-time
// series. Both are byte-identical across same-seed runs; table3.txtar
// (internal/scenario) pins them.
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

// verdict renders a CrossCheckLedger result: MATCH, or MISMATCH and what
// differs.
func verdict(err error) string {
	if err != nil {
		return "MISMATCH: " + err.Error()
	}
	return "MATCH"
}

// writeTable3CSV writes the Table 3 rows as the ledger books them.
func writeTable3CSV(dir string, lt experiments.LedgerTables) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var sb strings.Builder
	sb.WriteString("carrier,without_pogo_j,with_pogo_j,increase_pct,uplink_bytes,tail_hits,tail_misses\n")
	for _, c := range lt.Table3 {
		base, with := c.Base, c.Pogo
		inc := 0.0
		if base.EnergyTotal > 0 {
			inc = 100 * (with.EnergyTotal - base.EnergyTotal) / base.EnergyTotal
		}
		fmt.Fprintf(&sb, "%s,%.3f,%.3f,%.2f,%d,%d,%d\n", c.Carrier,
			base.EnergyTotal, with.EnergyTotal, inc,
			with.UplinkBytes, with.TailHits, with.TailMisses)
	}
	return os.WriteFile(filepath.Join(dir, "table3.csv"), []byte(sb.String()), 0o644)
}

// writeTable4CSV writes the §5.3 uplink-reduction row as the ledger books
// it: the counterfactual (dev, scan.js, wifi-scan-raw) uplink rows against
// the collector's actually-delivered "clusters" downlink bytes.
func writeTable4CSV(dir string, lt experiments.LedgerTables) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var sb strings.Builder
	sb.WriteString("raw_uplink_bytes,cluster_downlink_bytes,reduction_pct\n")
	fmt.Fprintf(&sb, "%d,%d,%.2f\n", lt.RawUplink, lt.ClusterDownlink, lt.ReductionPct)
	return os.WriteFile(filepath.Join(dir, "table4.csv"), []byte(sb.String()), 0o644)
}

// runChaos runs the seeded fault-injection scenario matrix and prints each
// level's delivery audit, fault counts, delivery-log hash and per-topic
// latency quantiles. Everything — traffic, faults, churn, retries — runs in
// simulated time, so the report is a pure function of the seed: `pogo-bench
// -run chaos -seed 1` twice gives byte-identical output, and chaos.txtar
// (internal/scenario) pins the seed-1 hashes. Not part of "all": it
// benchmarks the delivery path, not the paper.
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
	for _, sc := range scenarios {
		reg := obs.NewRegistry()
		sc.Config.Phones = phones
		sc.Config.Obs = reg
		res := experiments.Chaos(sc.Name, sc.Config)
		fmt.Printf("chaos %-6s seed=%d phones=%d: %d/%d delivered, lost=%d dup=%d ooo=%d, retries=%d, %.1f deliveries/sim-s\n",
			res.Scenario, res.Seed, res.Phones, res.Delivered, res.Expected,
			res.Lost, res.Duplicated, res.OutOfOrder, res.Retries, res.DeliveriesPerSec)
		fmt.Printf("  net: sent=%d dropped=%d duplicated=%d corrupted=%d delayed=%d partition_drops=%d disconnects=%d\n",
			res.NetSent, res.NetDropped, res.NetDuplicated, res.NetCorrupted,
			res.NetDelayed, res.PartitionDrops, res.Disconnects)
		fmt.Printf("  delivery log sha256: %s\n", res.LogSHA256)
		if err := res.Err(); err != nil {
			err = fmt.Errorf("chaos %s seed=%d: %w", res.Scenario, res.Seed, err)
			dumpFlight(flightOut, reg, err.Error())
			return err
		}
		fmt.Printf("  span hops: %d (%d dropped)\n", reg.Spans().Len(), reg.Spans().Dropped())
		for _, t := range obs.LatencyReport(reg) {
			fmt.Printf("  %-8s n=%-6d p50=%8.3fs p95=%8.3fs p99=%8.3fs\n",
				t.Channel, t.Count, t.P50, t.P95, t.P99)
		}
		if traceOut != "" {
			// Last scenario wins: with -traceout the written file holds the
			// final (heaviest) scenario's causal timeline.
			if err := writeTraceFile(traceOut, reg); err != nil {
				return err
			}
		}
	}
	return nil
}

// printTable3Metrics summarizes the observability registry after the Table 3
// runs.
func printTable3Metrics(reg *obs.Registry) {
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
}
