package main

// The fleet scaling benchmark and its memory-diet regression gate.
// `pogo-bench -run fleet` sweeps the sharded fleet simulation over shard
// counts, hard-fails unless every split of a given (seed, phones) preserves
// the exactly-once audit AND the same delivery-log SHA-256, and merges the
// rows into BENCH_fleet.json. `-fleet-scale 10000,100000` appends the
// phones-vs-throughput scaling curve. With -gate it instead replays the
// canonical 2000-phone row and fails on fleet_bytes_per_phone or
// allocs_per_delivery regressions (see gateFleetDiet).

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"pogo/internal/experiments"
	"pogo/internal/obs"
)

const fleetFileName = "BENCH_fleet.json"

// fleetBenchRun is one row of BENCH_fleet.json: a FleetResult (which carries
// its own phones/shards coordinates) plus the wall-clock speedup against
// the shards=1 run of the same fleet size.
type fleetBenchRun struct {
	experiments.FleetResult
	SpeedupVs1Shard float64 `json:"speedup_vs_1_shard"`
}

// fleetBench is the BENCH_fleet.json schema. NumCPU/GOMAXPROCS record the
// machine the wall-clock figures were taken on: the delivery-log hash,
// allocs_per_delivery and fleet_bytes_per_phone are machine-independent, the
// wall-clock columns are not — on a box with fewer cores than shards the
// speedup is flat and cpu_seconds is what attributes the work.
type fleetBench struct {
	Seed       int64           `json:"seed"`
	NumCPU     int             `json:"num_cpu"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	Runs       []fleetBenchRun `json:"runs"`
}

// fleetCombo is one (phones, shards) point of the sweep.
type fleetCombo struct {
	phones, shards int
}

// fleetSweep builds the default sweep: shard counts 1, 2, 4, … up to
// maxShards. Scale sizes each get the two points that make the curve
// readable: serial and 8 shards.
func fleetSweep(phones, maxShards int, scaleSizes []int) []fleetCombo {
	combos := []fleetCombo{{phones, 1}}
	for k := 2; k < maxShards; k *= 2 {
		combos = append(combos, fleetCombo{phones, k})
	}
	if maxShards > 1 {
		combos = append(combos, fleetCombo{phones, maxShards})
	}
	for _, n := range scaleSizes {
		combos = append(combos, fleetCombo{n, 1}, fleetCombo{n, 8})
	}
	return combos
}

func parseFleetScale(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var sizes []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -fleet-scale entry %q (want positive integers, e.g. 10000,100000)", part)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}

// runFleet executes the sweep. Every run must preserve the exactly-once
// delivery guarantee, and every run of the same fleet size must produce the
// same delivery-log hash as that size's 1-shard run — the partitioning must
// be invisible to the simulation. Rows merge into BENCH_fleet.json keyed by
// (phones, shards), so a scale sweep and the default sweep accumulate into
// one file. With -fleet-log the merged delivery log of the last base-size run
// is written out.
func runFleet(seed int64, phones, maxShards int, fleetScale, logPath, traceOut string) error {
	if phones == 0 {
		phones = 2000
	}
	if maxShards == 0 {
		maxShards = 4
		if n := runtime.NumCPU(); n > maxShards {
			maxShards = n
		}
	}
	scaleSizes, err := parseFleetScale(fleetScale)
	if err != nil {
		return err
	}
	combos := fleetSweep(phones, maxShards, scaleSizes)

	baseHash := make(map[int]string) // phones → 1-shard hash
	baseWall := make(map[int]float64)
	var runs []fleetBenchRun
	var lastLog []string
	var lastReg *obs.Registry
	for _, c := range combos {
		cfg := experiments.FleetScenario(seed, c.phones, c.shards)
		cfg.KeepLog = logPath != "" && c.phones == phones
		if traceOut != "" {
			// A fresh registry per run: spans from different shard counts must
			// not mix (same seed means identical trace IDs across runs).
			lastReg = obs.NewRegistry()
			cfg.Obs = lastReg
		}
		res := experiments.Fleet(cfg)
		if err := res.Err(); err != nil {
			return fmt.Errorf("fleet phones=%d shards=%d: %w", c.phones, c.shards, err)
		}
		if ref, ok := baseHash[c.phones]; !ok {
			baseHash[c.phones] = res.LogSHA256
			baseWall[c.phones] = res.WallSeconds
		} else if res.LogSHA256 != ref {
			return fmt.Errorf("fleet phones=%d shards=%d: delivery log hash %s differs from 1-shard hash %s (determinism broken)",
				c.phones, c.shards, res.LogSHA256, ref)
		}
		run := fleetBenchRun{FleetResult: res}
		if res.WallSeconds > 0 {
			run.SpeedupVs1Shard = baseWall[c.phones] / res.WallSeconds
		}
		runs = append(runs, run)
		if cfg.KeepLog {
			lastLog = res.Log
		}
		fmt.Printf("fleet phones=%d shards=%d seed=%d collectors=%d: %d/%d delivered, epochs=%d, events=%d, cross-shard=%d\n",
			res.Phones, res.Shards, res.Seed, res.Collectors,
			res.Delivered, res.Expected, res.Epochs, res.Events, res.CrossShard)
		fmt.Printf("  %.1f sim-s in %.2f wall-s (%.2f cpu-s): %.0f events/s, %.0f deliveries/s, speedup vs 1 shard %.2fx\n",
			res.SimSeconds, res.WallSeconds, res.CPUSeconds, res.EventsPerSec, res.DeliveriesPerSec, run.SpeedupVs1Shard)
		fmt.Printf("  %.0f B/phone live heap, %.1f allocs/delivery\n", res.BytesPerPhone, res.AllocsPerDelivery)
		fmt.Printf("  delivery log sha256: %s\n", res.LogSHA256)
	}
	for _, n := range append([]int{phones}, scaleSizes...) {
		fmt.Printf("determinism: phones=%d, identical delivery-log hash %s at every shard count\n", n, baseHash[n])
	}
	if runtime.NumCPU() < maxShards {
		fmt.Printf("note: only %d CPU(s) available; wall-clock speedup needs as many cores as shards (cpu_seconds attributes the work regardless)\n", runtime.NumCPU())
	}

	if logPath != "" {
		data := strings.Join(lastLog, "\n") + "\n"
		if err := os.WriteFile(logPath, []byte(data), 0o644); err != nil {
			return err
		}
		fmt.Printf("delivery log (%d entries) written to %s\n", len(lastLog), logPath)
	}
	if traceOut != "" {
		if err := writeTraceFile(traceOut, lastReg); err != nil {
			return err
		}
	}
	if err := mergeFleetRows(seed, runs); err != nil {
		return err
	}
	fmt.Printf("baseline written to %s\n", fleetFileName)
	return nil
}

// mergeFleetRows folds fresh rows into BENCH_fleet.json keyed by (phones,
// shards): the default 2000-phone sweep and the -fleet-scale curve are
// recorded by separate invocations but live in one file. A seed change
// invalidates every hash, so the file restarts from scratch.
func mergeFleetRows(seed int64, fresh []fleetBenchRun) error {
	bench := fleetBench{Seed: seed, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if data, err := os.ReadFile(fleetFileName); err == nil {
		var old fleetBench
		if json.Unmarshal(data, &old) == nil && old.Seed == seed {
			bench.Runs = old.Runs
		}
	}
	for _, f := range fresh {
		replaced := false
		for i, r := range bench.Runs {
			if r.Phones == f.Phones && r.Shards == f.Shards {
				bench.Runs[i] = f
				replaced = true
				break
			}
		}
		if !replaced {
			bench.Runs = append(bench.Runs, f)
		}
	}
	sort.Slice(bench.Runs, func(i, j int) bool {
		a, b := bench.Runs[i], bench.Runs[j]
		if a.Phones != b.Phones {
			return a.Phones < b.Phones
		}
		return a.Shards < b.Shards
	})
	b, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(fleetFileName, append(b, '\n'), 0o644)
}

// Memory-diet gate slacks, in the spirit of the hotpath gate's: a change must
// exceed both the 15% threshold and an absolute floor to fail. The live-heap
// measurement jitters a couple hundred bytes per phone with GC timing, so the
// bytes floor is half a kilobyte — a genuine diet regression (reverting any
// one of the pooled structures) costs kilobytes per phone and still trips it.
// allocs_per_delivery is exact per seed; its floor only absorbs rounding.
const (
	gateSlackBytesPerPhone     = 512.0
	gateSlackAllocsPerDelivery = 2.0
)

// gateFleetDiet replays the canonical 2000-phone, 4-shard row and compares
// the two machine-independent memory metrics against the checked-in baseline:
// fleet_bytes_per_phone (the per-device footprint the 100k diet is budgeted
// against) and allocs_per_delivery. Either worse by >15% (past its slack)
// fails the build; wall-clock deltas are printed but advisory, same policy as
// the hotpath gate. The delivery-log hash must match the baseline exactly —
// a hash drift is a determinism break, not a perf regression.
func gateFleetDiet(seed int64) error {
	data, err := os.ReadFile(fleetFileName)
	if err != nil {
		return fmt.Errorf("no baseline (%v); run `pogo-bench -run fleet` and commit %s", err, fleetFileName)
	}
	var base fleetBench
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("corrupt baseline %s: %v", fleetFileName, err)
	}
	if base.Seed != seed {
		return fmt.Errorf("baseline %s was recorded with seed %d, gate run with seed %d", fleetFileName, base.Seed, seed)
	}
	const phones, shards = 2000, 4
	var ref *fleetBenchRun
	for i := range base.Runs {
		r := &base.Runs[i]
		if r.Phones == phones && r.Shards == shards {
			ref = r
			break
		}
	}
	if ref == nil {
		return fmt.Errorf("baseline %s has no phones=%d shards=%d row; run `pogo-bench -run fleet` to record it", fleetFileName, phones, shards)
	}

	res := experiments.Fleet(experiments.FleetScenario(seed, phones, shards))
	if err := res.Err(); err != nil {
		return fmt.Errorf("fleet gate run: %w", err)
	}
	if res.LogSHA256 != ref.LogSHA256 {
		return fmt.Errorf("fleet gate: delivery-log hash %s differs from baseline %s (determinism broken; if the workload changed intentionally, refresh %s and the fleet txtar pins)",
			res.LogSHA256, ref.LogSHA256, fleetFileName)
	}

	pct := func(old, new float64) float64 {
		if old == 0 {
			if new == 0 {
				return 0
			}
			return 100
		}
		return 100 * (new - old) / old
	}
	dBytes := pct(ref.BytesPerPhone, res.BytesPerPhone)
	dAllocs := pct(ref.AllocsPerDelivery, res.AllocsPerDelivery)
	dWall := pct(ref.WallSeconds, res.WallSeconds)
	fmt.Printf("fleet gate vs %s (phones=%d shards=%d; fail: B/phone or allocs/delivery worse by >%.0f%%; wall advisory)\n",
		fleetFileName, phones, shards, gateThresholdPct)
	fmt.Printf("  %-22s %10.0f -> %10.0f  %+.1f%%\n", "fleet_bytes_per_phone", ref.BytesPerPhone, res.BytesPerPhone, dBytes)
	fmt.Printf("  %-22s %10.1f -> %10.1f  %+.1f%%\n", "allocs_per_delivery", ref.AllocsPerDelivery, res.AllocsPerDelivery, dAllocs)
	fmt.Printf("  %-22s %10.2f -> %10.2f  %+.1f%% (advisory)\n", "wall_seconds", ref.WallSeconds, res.WallSeconds, dWall)
	failures := 0
	if dBytes > gateThresholdPct && res.BytesPerPhone-ref.BytesPerPhone > gateSlackBytesPerPhone {
		fmt.Println("  FAIL fleet_bytes_per_phone")
		failures++
	}
	if dAllocs > gateThresholdPct && res.AllocsPerDelivery-ref.AllocsPerDelivery > gateSlackAllocsPerDelivery {
		fmt.Println("  FAIL allocs_per_delivery")
		failures++
	}
	if failures > 0 {
		return fmt.Errorf("fleet gate: %d memory regression(s); if intended, regenerate the baseline with `pogo-bench -run fleet`", failures)
	}
	fmt.Println("fleet gate: PASS")
	return nil
}
