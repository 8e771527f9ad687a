// Command bench is Pogo's end-to-end benchmark: it sends generated sensor
// messages through the real stack — phone context broker, file-backed
// outbox, batched flush, XMPP over loopback TCP, collector endpoint,
// collector script, log — and reports what a user of the system would see
// (throughput, latency, CPU, allocations and uplink bytes per delivered
// message) plus a per-layer cost table. See README.md beside this file.
//
//	bash bench/run.sh                    # every workload, both passes, tables
//	bash bench/run.sh -workload stream_sat -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -repeat 2          # two sets, compared against the bounds
//	bash bench/run.sh -probe backlog     # the largest batch one flush can drain
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

const (
	// setupRounds is how many times an end-to-end run builds and tears down
	// the world just to time it; setup_s is their median.
	setupRounds = 15
	// maxWarmup is the warm-up of a long pass; shorter passes warm up for a
	// quarter of their measured time.
	maxWarmup = 2 * time.Second
	// An end-to-end run splits its measured time into at most maxPasses
	// passes of at least minPass each.
	minPass   = 4 * time.Second
	maxPasses = 6
)

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	repeat   int
	probe    string
	outDir   string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and end with the one-line JSON result (default: all, as tables)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed generates the same messages")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	flag.IntVar(&o.repeat, "repeat", 1, "2 runs the end-to-end set twice (seeds seed and seed+1) and compares the two against BENCHMARK.json's bounds")
	flag.StringVar(&o.probe, "probe", "", "run a stand-alone probe instead: backlog")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory for outbox files and trace dumps")
	flag.Parse()
	if err := o.run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func (o *options) run() error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if o.repeat != 1 && o.repeat != 2 {
		return fmt.Errorf("-repeat must be 1 or 2")
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	stateDir, err := os.MkdirTemp(o.outDir, "state-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(stateDir)
	measure := time.Duration(o.seconds * float64(time.Second))
	fmt.Printf("# pogo bench: seed=%d seconds=%g phones=%d nproc=%d gomaxprocs=%d %s loopback-only\n",
		o.seed, o.seconds, numPhones, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	switch {
	case o.probe == "backlog":
		return probeBacklogLimit(stateDir)
	case o.probe != "":
		return fmt.Errorf("unknown probe %q", o.probe)
	case o.workload != "":
		wl, err := workloadByName(o.workload)
		if err != nil {
			return err
		}
		var res *result
		if o.trace == 0 {
			res, err = runEndToEnd(wl, o.seed, measure, stateDir)
		} else {
			res, err = runPerLayer(wl, o.seed, measure, stateDir, o.outDir, prober{probeBudget})
		}
		if err != nil {
			return err
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
		if !res.Correct {
			return fmt.Errorf("%s: audit failed: %d of %d messages lost, duplicated or stuck", wl.name, res.Failed, res.Attempted)
		}
		return nil
	}
	return o.runAll(measure, stateDir)
}

// runAll runs every workload end to end, then either the per-layer runs
// (-repeat 1) or a second end-to-end set and the comparison (-repeat 2).
func (o *options) runAll(measure time.Duration, stateDir string) error {
	var names []string
	for _, wl := range workloads {
		names = append(names, wl.name)
	}
	sets := make([]map[string]*result, o.repeat)
	failed := false
	for s := range sets {
		sets[s] = make(map[string]*result)
		for _, wl := range workloads {
			res, err := runEndToEnd(wl, o.seed+int64(s), measure, stateDir)
			if err != nil {
				return err
			}
			sets[s][wl.name] = res
			failed = failed || !res.Correct
		}
	}
	if o.repeat == 1 {
		for _, wl := range workloads {
			if _, err := runPerLayer(wl, o.seed, measure, stateDir, o.outDir, prober{probeBudget}); err != nil {
				return err
			}
		}
	} else {
		bf, err := loadBenchmarkFile("BENCHMARK.json")
		if err != nil {
			return fmt.Errorf("-repeat needs the bounds: %w", err)
		}
		fmt.Printf("\n== sets 1 and 2 (seeds %d and %d) against the bounds ==\n", o.seed, o.seed+1)
		if !compareSets(os.Stdout, bf, names, sets[0], sets[1]) {
			return fmt.Errorf("a bound was exceeded")
		}
	}
	if failed {
		return fmt.Errorf("audit failed on at least one workload")
	}
	return nil
}

// warmupFor returns the warm-up that precedes a measured window.
func warmupFor(measure time.Duration) time.Duration {
	if w := measure / 4; w < maxWarmup {
		return w
	}
	return maxWarmup
}

// runPass builds a world (tr non-nil: traced), runs one pass, and tears the
// world down.
func runPass(wl *workload, seed int64, measure time.Duration, stateDir string, tr *tracer) (*passResult, error) {
	w, err := buildWorld(wl, stateDir, tr)
	if err != nil {
		return nil, err
	}
	defer w.close()
	if tr != nil {
		tr.tap(w, wl.wireSeqKey)
	}
	return newRun(w, seed, tr).execute(warmupFor(measure), measure)
}

// runEndToEnd measures set-up time over setupRounds worlds, then splits the
// measured time over several untraced passes, each in a fresh world, and
// reports every metric's median over the passes. On a small shared box one
// world settles into a faster or slower scheduling regime for seconds at a
// time; the median over fresh worlds is what repeats from run to run.
func runEndToEnd(wl *workload, seed int64, measure time.Duration, stateDir string) (*result, error) {
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		t0 := time.Now()
		w, err := buildWorld(wl, stateDir, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		w.close()
	}
	passes := int(measure / minPass)
	if passes < 1 {
		passes = 1
	}
	if passes > maxPasses {
		passes = maxPasses
	}
	fmt.Printf("\n== %s: end to end (seed %d, %d passes of %.1f s) ==\n", wl.name, seed, passes, (measure / time.Duration(passes)).Seconds())
	cols := make(map[string][]float64)
	var attempted, failed int64
	for i := 0; i < passes; i++ {
		pass, err := runPass(wl, seed, measure/time.Duration(passes), stateDir, nil)
		if err != nil {
			return nil, err
		}
		for name, v := range pass.endToEnd() {
			cols[name] = append(cols[name], v)
		}
		attempted += pass.published
		failed += pass.failed()
		printAudit(pass)
	}
	values := map[string]float64{"setup_s": quantile(setups, 0.5)}
	for name, col := range cols {
		values[name] = quantile(col, 0.5)
	}
	res, err := newResult(endToEnd, values, attempted, failed)
	if err != nil {
		return nil, err
	}
	res.printTable(os.Stdout, endToEnd)
	return res, nil
}

func printAudit(p *passResult) {
	fmt.Printf("  pass: %.0f msg/s, %.1f us cpu/msg; audit: published=%d lost=%d duplicated=%d stuck_in_outbox=%d failed_share=%.6f order_violations=%d retries=%d reconnects=%d\n",
		p.deliveredPS, p.cpuUS, p.published, p.lost, p.duplicated, p.stuck, float64(p.failed())/float64(p.published), p.violations, p.retries, p.reconnects)
}

// runPerLayer splits the measured time between an untraced reference pass
// and the traced pass, then runs the layer probes: the per-layer metrics.
func runPerLayer(wl *workload, seed int64, measure time.Duration, stateDir, outDir string, probes prober) (*result, error) {
	ref, err := runPass(wl, seed, measure/2, stateDir, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := runPass(wl, seed, measure/2, stateDir, tr)
	if err != nil {
		return nil, err
	}
	tr.resolve()
	sum := tr.summarize(traced.windowFrom, traced.windowTo)
	tracePath, err := tr.writeFile(outDir, wl.name, sum)
	if err != nil {
		return nil, err
	}

	values, err := probes.run(wl, seed, stateDir, ref)
	if err != nil {
		return nil, err
	}
	for j, name := range segmentNames {
		values[name] = sum.segmentUS[j]
	}
	values["harness.traced_latency_p50_us"] = sum.latencyUS
	values["harness.trace_overhead_pct"] = 100 * (1 - traced.deliveredPS/ref.deliveredPS)
	values["harness.latency_p99_ms"] = ref.latP99MS
	values["harness.cpu_us_per_msg"] = ref.cpuUS
	values["harness.gen_late_p50_ms"] = ref.genLateP50MS
	values["harness.gen_late_p99_ms"] = ref.genLateP99MS
	values["transport.msgs_per_flush"] = ref.msgsPerFl
	values["transport.retries"] = float64(ref.retries + traced.retries)
	values["transport.duplicates"] = float64(ref.duplicates)
	values["xmpp.reconnects"] = float64(ref.reconnects + traced.reconnects)
	values["sched.order_violations"] = float64(ref.violations)
	res, err := newResult(perLayer, values, ref.published+traced.published, ref.failed()+traced.failed())
	if err != nil {
		return nil, err
	}

	var segSum float64
	for _, v := range sum.segmentUS {
		segSum += v
	}
	fmt.Printf("\n== %s: per layer (seed %d; %d spans, %d incomplete; spans in %s) ==\n",
		wl.name, seed, sum.spans, sum.incomplete, tracePath)
	res.printTable(os.Stdout, perLayer)
	fmt.Printf("  segments sum to %.1f us = %.1f%% of the traced median latency %.1f us\n",
		segSum, 100*segSum/sum.latencyUS, sum.latencyUS)
	printAudit(ref)
	printAudit(traced)
	return res, nil
}
