// Command pogo-fleet runs the sharded fleet simulation across worker
// processes: a coordinator forks N copies of this binary (via re-exec), hands
// each a contiguous shard range, and exchanges cross-shard traffic at
// conservative-lookahead epoch barriers over the transport envelope codec.
//
// Usage:
//
//	pogo-fleet -phones 10000 -shards 8 -procs 2
//	pogo-fleet -phones 10000 -shards 8 -procs 2 -verify
//	pogo-fleet -phones 2000 -procs 4 -log fleet.log
//
// The delivery log (and its SHA-256) is a pure function of the seed — the
// same at any (shards × procs) split. -verify proves it on the spot: it runs
// the same seed in-process and multi-process and hard-fails on any hash or
// audit divergence. `make fleet-smoke` is exactly that.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"pogo/internal/experiments"
)

func main() {
	// If this process was forked as a shard worker, serve the wire protocol
	// on stdin/stdout and exit; everything below is coordinator-only.
	experiments.MaybeFleetWorker()

	var (
		seed       = flag.Int64("seed", 1, "world seed; the delivery log is a pure function of it")
		phones     = flag.Int("phones", 2000, "fleet size")
		collectors = flag.Int("collectors", 0, "collector cluster size (0 = phones/128, clamped to [1,16])")
		shards     = flag.Int("shards", 4, "shard count (lockstep epoch partitions)")
		procs      = flag.Int("procs", 1, "worker processes the shard range is split over (1 = in-process)")
		verify     = flag.Bool("verify", false, "run the seed both in-process and with -procs workers and fail on any divergence")
		logPath    = flag.String("log", "", "write the merged delivery log to this file")
	)
	flag.Parse()

	cfg := experiments.FleetScenario(*seed, *phones, *shards)
	cfg.Collectors = *collectors
	cfg.Procs = *procs
	cfg.KeepLog = *logPath != ""

	if err := run(cfg, *verify, *logPath); err != nil {
		fmt.Fprintln(os.Stderr, "pogo-fleet:", err)
		os.Exit(1)
	}
}

func run(cfg experiments.FleetConfig, verify bool, logPath string) error {
	var res experiments.FleetResult
	var err error
	if verify {
		res, err = runVerify(cfg)
	} else if cfg.Procs > 1 {
		res, err = experiments.FleetMultiproc(cfg, nil)
	} else {
		res = experiments.Fleet(cfg)
	}
	if err != nil {
		return err
	}
	if err := audit(res); err != nil {
		return err
	}
	if logPath != "" {
		data := strings.Join(res.Log, "\n") + "\n"
		if err := os.WriteFile(logPath, []byte(data), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "delivery log (%d entries) written to %s\n", len(res.Log), logPath)
	}
	res.Log = nil
	b, jerr := json.MarshalIndent(res, "", "  ")
	if jerr != nil {
		return jerr
	}
	fmt.Println(string(b))
	return nil
}

// runVerify runs the configured seed twice — once in-process, once split over
// cfg.Procs worker processes — and fails unless both runs pass the
// exactly-once audit and produce the same delivery-log SHA-256 and the same
// epoch/event/delivery counts. This is the executable form of the determinism
// claim: partitioning is an implementation detail the log cannot observe.
func runVerify(cfg experiments.FleetConfig) (experiments.FleetResult, error) {
	procs := cfg.Procs
	if procs < 2 {
		procs = 2
	}
	inproc := cfg
	inproc.Procs = 1
	inproc.KeepLog = false
	ref := experiments.Fleet(inproc)
	if err := audit(ref); err != nil {
		return ref, fmt.Errorf("in-process reference: %w", err)
	}
	mcfg := cfg
	mcfg.Procs = procs
	res, err := experiments.FleetMultiproc(mcfg, nil)
	if err != nil {
		return res, err
	}
	if err := audit(res); err != nil {
		return res, fmt.Errorf("procs=%d: %w", procs, err)
	}
	if res.LogSHA256 != ref.LogSHA256 {
		return res, fmt.Errorf("verify: procs=%d delivery-log hash %s differs from in-process hash %s (determinism broken)",
			procs, res.LogSHA256, ref.LogSHA256)
	}
	if res.Delivered != ref.Delivered || res.Epochs != ref.Epochs || res.Events != ref.Events {
		return res, fmt.Errorf("verify: procs=%d counts diverge: delivered %d/%d epochs %d/%d events %d/%d",
			procs, res.Delivered, ref.Delivered, res.Epochs, ref.Epochs, res.Events, ref.Events)
	}
	fmt.Fprintf(os.Stderr,
		"verify: seed=%d phones=%d shards=%d: in-process and %d-process runs identical (sha256 %s)\n",
		res.Seed, res.Phones, res.Shards, procs, res.LogSHA256)
	fmt.Fprintf(os.Stderr,
		"  in-process: wall %.2fs cpu %.2fs   %d-process: wall %.2fs cpu %.2fs (%d cpu(s) on this host)\n",
		ref.WallSeconds, ref.CPUSeconds, procs, res.WallSeconds, res.CPUSeconds, runtime.NumCPU())
	return res, nil
}

func audit(res experiments.FleetResult) error {
	if res.Lost != 0 || res.Duplicated != 0 || res.OutOfOrder != 0 || res.Undrained != 0 {
		return fmt.Errorf("delivery guarantee violated: lost=%d dup=%d ooo=%d undrained=%d",
			res.Lost, res.Duplicated, res.OutOfOrder, res.Undrained)
	}
	return nil
}
