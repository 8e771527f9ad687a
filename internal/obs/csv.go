package obs

import (
	"fmt"
	"io"
	"time"
)

// WriteAccountingCSV renders the ledger as CSV, one row per (entity, energy
// state) plus one "total" row per entity carrying the integer quantities.
// Rows follow Ledger.Snapshot's (device, script, topic) order with energy
// states sorted, so same-seed runs produce byte-identical files.
func WriteAccountingCSV(w io.Writer, l *Ledger) {
	fmt.Fprintln(w, "device,script,topic,state,energy_joules,uplink_bytes,downlink_bytes,messages,wake_ms,steps,deadline_exceeded,tail_hits,tail_misses")
	for _, a := range l.Snapshot() {
		for _, st := range sortedKeys(a.Energy) {
			fmt.Fprintf(w, "%s,%s,%s,%s,%.6f,0,0,0,0,0,0,0,0\n",
				csvField(a.Device), csvField(a.Script), csvField(a.Topic), csvField(st), a.Energy[st])
		}
		fmt.Fprintf(w, "%s,%s,%s,total,%.6f,%d,%d,%d,%d,%d,%d,%d,%d\n",
			csvField(a.Device), csvField(a.Script), csvField(a.Topic),
			a.EnergyTotal, a.UplinkBytes, a.DownlinkBytes, a.Messages,
			a.WakeMS, a.Steps, a.DeadlineExceeded, a.TailHits, a.TailMisses)
	}
}

// WriteSeriesCSV renders the time-series store in long format: one row per
// (sample, metric), with metrics sorted within each sample. Histograms emit
// their count and sum. Timestamps are RFC 3339 in UTC (simulated instants
// are already UTC).
func WriteSeriesCSV(w io.Writer, s *SeriesStore) {
	fmt.Fprintln(w, "at,tag,kind,key,value")
	for _, sm := range s.samples() {
		at := sm.At.UTC().Format(time.RFC3339Nano)
		for _, k := range sortedKeys(sm.Counters) {
			fmt.Fprintf(w, "%s,%s,counter,%s,%d\n", at, csvField(sm.Tag), csvField(k), sm.Counters[k])
		}
		for _, k := range sortedKeys(sm.Gauges) {
			fmt.Fprintf(w, "%s,%s,gauge,%s,%g\n", at, csvField(sm.Tag), csvField(k), sm.Gauges[k])
		}
		for _, k := range sortedKeys(sm.Histograms) {
			h := sm.Histograms[k]
			fmt.Fprintf(w, "%s,%s,hist_count,%s,%d\n", at, csvField(sm.Tag), csvField(k), h.Count)
			fmt.Fprintf(w, "%s,%s,hist_sum,%s,%g\n", at, csvField(sm.Tag), csvField(k), h.Sum)
		}
	}
}

// csvField quotes a value when it contains a comma, quote, or newline
// (RFC 4180). Metric keys contain commas between labels, so this triggers
// routinely.
func csvField(v string) string {
	needQuote := false
	for i := 0; i < len(v); i++ {
		if c := v[i]; c == ',' || c == '"' || c == '\n' || c == '\r' {
			needQuote = true
			break
		}
	}
	if !needQuote {
		return v
	}
	out := make([]byte, 0, len(v)+2)
	out = append(out, '"')
	for i := 0; i < len(v); i++ {
		if v[i] == '"' {
			out = append(out, '"')
		}
		out = append(out, v[i])
	}
	return string(append(out, '"'))
}
