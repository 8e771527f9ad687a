package main

// The fleet scaling benchmark. `pogo-bench -run fleet` sweeps the sharded
// fleet simulation over shard counts, hard-fails unless every split of a
// given (seed, phones) preserves the exactly-once audit AND the same
// delivery-log SHA-256, and merges the rows into BENCH_fleet.json.
// `-fleet-scale 10000,100000` appends the phones-vs-throughput scaling curve.
// The memory diet of the canonical 2000-phone row is pinned by
// TestFleetBytesPerPhone (internal/experiments), not by this file.

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
