package main

// Causal-tracing commands: Perfetto trace export (-traceout), the
// flight-recorder dump written after a failed chaos audit, and its verifier
// (-verify-flight), which reloads a dump and reconstructs every span tree.

import (
	"fmt"
	"os"
	"strings"
	"time"

	"pogo/internal/obs"
)

// writeTraceFile exports the registry's span store as Chrome Trace Event
// JSON loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
func writeTraceFile(path string, reg *obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteTraceJSON(f, reg); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("perfetto trace (%d span hops) written to %s\n", reg.Spans().Len(), path)
	return nil
}

// dumpFlight writes the flight-recorder dump after a failed audit, stamping
// it with the latest retained hop instant (the simulated time the run died).
func dumpFlight(path string, reg *obs.Registry, reason string) {
	at := time.Time{}
	if hops := reg.Spans().Hops(); len(hops) > 0 {
		for _, h := range hops {
			if h.At.After(at) {
				at = h.At
			}
		}
	}
	if err := obs.DumpFlightFile(path, reg, reason, at); err != nil {
		fmt.Fprintf(os.Stderr, "pogo-bench: flight dump: %v\n", err)
		return
	}
	fmt.Printf("flight recorder dump written to %s\n", path)
}

// runVerifyFlight reloads a flight dump and proves it is actionable: every
// dumped trace must reassemble into a span tree, and every in-flight trace
// (started but never delivered/expired) must root at its publish/enqueue hop
// so the causal path up to the loss is readable.
func runVerifyFlight(path string) error {
	d, err := obs.LoadFlightDump(path)
	if err != nil {
		return err
	}
	fmt.Printf("flight dump %s: reason=%q traces=%d dropped_hops=%d\n",
		path, d.Reason, len(d.Traces), d.DroppedHops)
	bad := 0
	for _, tr := range d.Traces {
		tree := d.Tree(tr.Trace)
		if tree == nil {
			fmt.Printf("  trace %s: no hops, cannot reassemble\n", tr.Trace)
			bad++
		}
	}
	inflight := d.Incomplete()
	fmt.Printf("in-flight traces (started, no deliver/expire): %d\n", len(inflight))
	for i, id := range inflight {
		tree := d.Tree(id)
		if tree == nil {
			bad++
			continue
		}
		if s := tree.Hop.Stage; s != obs.StageEnqueue && s != obs.StagePublish {
			fmt.Printf("  trace %s: tree roots at %q, not publish/enqueue\n", id, s)
			bad++
			continue
		}
		if i < 8 { // show a sample; the full dump is on disk
			var parts []string
			tree.Walk(func(depth int, n *obs.SpanNode) {
				parts = append(parts, fmt.Sprintf("%s@%s", n.Hop.Stage, n.Hop.Node))
			})
			fmt.Printf("  %s: %s\n", id, strings.Join(parts, " -> "))
		}
	}
	if bad > 0 {
		return fmt.Errorf("verify-flight: %d broken trace(s) in %s", bad, path)
	}
	fmt.Println("verify-flight: OK — every span tree reassembles; in-flight paths reconstruct from publish/enqueue")
	return nil
}
