package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
)

// Handler returns an http.Handler exposing the registry:
//
//	GET /metrics            — Prometheus text exposition format (scrape this)
//	GET /metrics.json       — full Snapshot as JSON (counters, gauges, histograms)
//	GET /accounting         — the per-entity resource ledger as JSON
//	GET /timeseries         — retained time-series samples as JSON (?last=N limits)
//	GET /trace              — retained lifecycle hops as JSON
//	GET /trace?channel=ch   — hops for one channel
//	GET /trace.pftrace      — the same hops as Chrome/Perfetto trace.json
//	GET /alerts             — alert rules, states, and transition log as JSON
//	GET /alerts?format=prom — firing/pending rules as Prometheus ALERTS samples
//	GET /stats              — the human-readable text dump (same as -stats)
//
// Everything is stdlib-only; point curl, a Prometheus scraper, or pogo-top
// at it.
func Handler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteProm(w, r)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(r.Snapshot())
	})
	mux.HandleFunc("/accounting", func(w http.ResponseWriter, req *http.Request) {
		r.Collect() // book any pull-style deltas before reading the ledger
		accounts := r.Ledger().Snapshot()
		if accounts == nil {
			accounts = []AccountSnapshot{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Accounts []AccountSnapshot `json:"accounts"`
		}{accounts})
	})
	mux.HandleFunc("/timeseries", func(w http.ResponseWriter, req *http.Request) {
		samples := r.Series().Samples()
		if n, err := strconv.Atoi(req.URL.Query().Get("last")); err == nil && n >= 0 && n < len(samples) {
			samples = samples[len(samples)-n:]
		}
		if samples == nil {
			samples = []SeriesSample{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Dropped uint64         `json:"dropped"`
			Samples []SeriesSample `json:"samples"`
		}{r.Series().Dropped(), samples})
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		hops := []Hop{} // an empty store still answers "hops": []
		ch := req.URL.Query().Get("channel")
		for _, h := range r.Spans().Hops() {
			if ch == "" || h.Channel == ch {
				hops = append(hops, h)
			}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Dropped uint64 `json:"dropped"`
			Hops    []Hop  `json:"hops"`
		}{r.Spans().Dropped(), hops})
	})
	mux.HandleFunc("/trace.pftrace", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="trace.json"`)
		WriteTraceJSON(w, r)
	})
	mux.HandleFunc("/alerts", func(w http.ResponseWriter, req *http.Request) {
		e := r.Alerts()
		if req.URL.Query().Get("format") == "prom" {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			e.WriteAlertsProm(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		alerts := e.Snapshot()
		if alerts == nil {
			alerts = []AlertSnapshot{}
		}
		log := e.Log()
		if log == nil {
			log = []AlertEvent{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Alerts []AlertSnapshot `json:"alerts"`
			Log    []AlertEvent    `json:"log"`
		}{alerts, log})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		WriteText(w, r)
	})
	return mux
}

// PprofHandler returns a mux serving the net/http/pprof endpoints under
// /debug/pprof/. The binaries bind it to its own flag-guarded address, never
// alongside Handler: profiling a production node is an explicit operator
// decision, not an accidental default.
func PprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// WriteText renders the registry as a sorted, aligned text report — the
// -stats output of cmd/pogod and cmd/pogo-bench.
func WriteText(w io.Writer, r *Registry) {
	s := r.Snapshot()
	section := func(title string) { fmt.Fprintf(w, "%s:\n", title) }
	if len(s.Counters) > 0 {
		section("counters")
		for _, k := range sortedKeys(s.Counters) {
			fmt.Fprintf(w, "  %-64s %d\n", k, s.Counters[k])
		}
	}
	if len(s.Gauges) > 0 {
		section("gauges")
		for _, k := range sortedKeys(s.Gauges) {
			fmt.Fprintf(w, "  %-64s %g\n", k, s.Gauges[k])
		}
	}
	if len(s.Histograms) > 0 {
		section("histograms")
		for _, k := range sortedKeys(s.Histograms) {
			h := s.Histograms[k]
			mean := 0.0
			if h.Count > 0 {
				mean = h.Sum / float64(h.Count)
			}
			fmt.Fprintf(w, "  %-64s count=%d sum=%g mean=%g\n", k, h.Count, h.Sum, mean)
		}
	}
	if r.Spans() != nil {
		section("tracing")
		fmt.Fprintf(w, "  %-64s %d\n", "span hops retained", r.Spans().Len())
		fmt.Fprintf(w, "  %-64s %d\n", "span hops dropped", r.Spans().Dropped())
	}
	if slos := LatencyReport(r); len(slos) > 0 {
		section("delivery latency SLOs (s)")
		for _, tl := range slos {
			fmt.Fprintf(w, "  %-44s count=%d p50=%.3f p95=%.3f p99=%.3f\n",
				tl.Channel, tl.Count, tl.P50, tl.P95, tl.P99)
		}
	}
	if snaps := r.Alerts().Snapshot(); len(snaps) > 0 {
		active := 0
		for _, a := range snaps {
			if a.State != AlertInactive {
				active++
			}
		}
		if active > 0 {
			section("alerts")
			for _, a := range snaps {
				if a.State == AlertInactive {
					continue
				}
				fmt.Fprintf(w, "  %-44s %s severity=%s value=%s since=%s\n",
					a.Rule.Name, a.State, a.Rule.Severity,
					formatAlertNum(a.Value), a.Since.UTC().Format("2006-01-02T15:04:05Z07:00"))
			}
		}
	}
	if accts := r.Ledger().Snapshot(); len(accts) > 0 {
		section("accounting (device/script/topic)")
		for _, a := range accts {
			fmt.Fprintf(w, "  %-44s energy=%.3fJ up=%dB down=%dB msgs=%d wake=%dms steps=%d deadline=%d tail=%d/%d\n",
				a.Device+"/"+a.Script+"/"+a.Topic,
				a.EnergyTotal, a.UplinkBytes, a.DownlinkBytes, a.Messages,
				a.WakeMS, a.Steps, a.DeadlineExceeded, a.TailHits, a.TailHits+a.TailMisses)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
