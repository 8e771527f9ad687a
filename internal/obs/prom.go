package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// writeProm renders the registry in Prometheus text exposition format 0.0.4:
// one family per metric name with # HELP and # TYPE lines, label values
// escaped, histograms expanded into _bucket/_sum/_count series, and the
// per-entity ledger appended as pogo_entity_* families. Output is fully
// sorted, so two identical registries render byte-identically.
func writeProm(w io.Writer, r *Registry) {
	if r == nil {
		return
	}
	s := r.Snapshot() // runs collect hooks first
	r.mu.Lock()
	meta := make(map[string]metricMeta, len(r.meta))
	for k, m := range r.meta {
		meta[k] = m
	}
	r.mu.Unlock()

	type series struct {
		key    string // canonical key, for ordering
		labels string // rendered {...} or ""
	}
	families := make(map[string][]series) // sanitized family name -> series
	kinds := make(map[string]string)      // family name -> counter|gauge|histogram
	add := func(k, kind string) series {
		m, ok := meta[k]
		if !ok {
			// Defensive: every key registered through the Registry has
			// meta; treat a stray one as an unlabeled family.
			m = metricMeta{name: k}
		}
		name := sanitizeName(m.name)
		sr := series{key: k, labels: renderLabels(m.labels)}
		families[name] = append(families[name], sr)
		kinds[name] = kind
		return sr
	}
	counterVals := make(map[string]int64)
	for k := range s.Counters {
		add(k, "counter")
		counterVals[k] = s.Counters[k]
	}
	gaugeVals := make(map[string]float64)
	for k := range s.Gauges {
		add(k, "gauge")
		gaugeVals[k] = s.Gauges[k]
	}
	histVals := make(map[string]HistogramSnapshot)
	for k := range s.Histograms {
		add(k, "histogram")
		histVals[k] = s.Histograms[k]
	}

	names := make([]string, 0, len(families))
	for name := range families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		srs := families[name]
		sort.Slice(srs, func(i, j int) bool { return srs[i].key < srs[j].key })
		kind := kinds[name]
		fmt.Fprintf(w, "# HELP %s %s\n", name, helpFor(name))
		fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
		for _, sr := range srs {
			switch kind {
			case "counter":
				fmt.Fprintf(w, "%s%s %d\n", name, sr.labels, counterVals[sr.key])
			case "gauge":
				fmt.Fprintf(w, "%s%s %s\n", name, sr.labels, formatFloat(gaugeVals[sr.key]))
			case "histogram":
				writePromHistogram(w, name, sr.labels, histVals[sr.key])
			}
		}
	}
	writePromLedger(w, r.Ledger())
}

func writePromHistogram(w io.Writer, name, labels string, h HistogramSnapshot) {
	var cum int64
	for i, b := range h.Bounds {
		cum += h.Counts[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabel(labels, "le", formatFloat(b)), cum)
	}
	if len(h.Counts) > 0 {
		cum += h.Counts[len(h.Counts)-1]
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabel(labels, "le", "+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.Count)
}

// writePromLedger renders the per-entity ledger. Ledger.Snapshot is already
// sorted by (device, script, topic); within an entity, energy states are
// emitted in sorted order.
func writePromLedger(w io.Writer, l *Ledger) {
	accts := l.Snapshot()
	if len(accts) == 0 {
		return
	}
	entLabels := func(a AccountSnapshot, extra ...string) string {
		ls := []Label{{Key: "device", Value: a.Device}, {Key: "script", Value: a.Script}, {Key: "topic", Value: a.Topic}}
		for i := 0; i+1 < len(extra); i += 2 {
			ls = append(ls, Label{Key: extra[i], Value: extra[i+1]})
		}
		return renderLabels(ls)
	}
	intFamily := func(name, help string, value func(AccountSnapshot) int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, a := range accts {
			fmt.Fprintf(w, "%s%s %d\n", name, entLabels(a), value(a))
		}
	}
	fmt.Fprintf(w, "# HELP pogo_entity_energy_joules_total Joules charged to an entity, by radio/power state.\n# TYPE pogo_entity_energy_joules_total counter\n")
	for _, a := range accts {
		states := make([]string, 0, len(a.Energy))
		for st := range a.Energy {
			states = append(states, st)
		}
		sort.Strings(states)
		for _, st := range states {
			fmt.Fprintf(w, "pogo_entity_energy_joules_total%s %s\n", entLabels(a, "state", st), formatFloat(a.Energy[st]))
		}
	}
	intFamily("pogo_entity_uplink_bytes_total", "Payload bytes an entity sent toward the server.", func(a AccountSnapshot) int64 { return a.UplinkBytes })
	intFamily("pogo_entity_downlink_bytes_total", "Payload bytes delivered to an entity.", func(a AccountSnapshot) int64 { return a.DownlinkBytes })
	intFamily("pogo_entity_messages_total", "Pub/sub messages charged to an entity.", func(a AccountSnapshot) int64 { return a.Messages })
	intFamily("pogo_entity_wake_milliseconds_total", "CPU-awake milliseconds an entity caused.", func(a AccountSnapshot) int64 { return a.WakeMS })
	intFamily("pogo_entity_steps_total", "Interpreter steps an entity consumed.", func(a AccountSnapshot) int64 { return a.Steps })
	intFamily("pogo_entity_deadline_exceeded_total", "Script calls killed by the execution budget.", func(a AccountSnapshot) int64 { return a.DeadlineExceeded })
	intFamily("pogo_entity_tailsync_hits_total", "Flushes that piggybacked on a 3G tail.", func(a AccountSnapshot) int64 { return a.TailHits })
	intFamily("pogo_entity_tailsync_misses_total", "Flushes that powered the radio up on their own.", func(a AccountSnapshot) int64 { return a.TailMisses })
}

// renderLabels renders a sorted label set as {k1="v1",k2="v2"}, or "" when
// empty, with Prometheus escaping applied to values.
func renderLabels(ls []Label) string {
	if len(ls) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(sanitizeName(l.Key))
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// mergeLabel appends one more label (e.g. le) to an already-rendered label
// block.
func mergeLabel(labels, k, v string) string {
	pair := sanitizeName(k) + `="` + escapeLabelValue(v) + `"`
	if labels == "" {
		return "{" + pair + "}"
	}
	return labels[:len(labels)-1] + "," + pair + "}"
}

// escapeLabelValue applies the exposition-format escapes: backslash, double
// quote, and newline.
func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// sanitizeName maps an arbitrary string onto the Prometheus metric/label
// name alphabet [a-zA-Z_:][a-zA-Z0-9_:]*.
func sanitizeName(name string) string {
	if name == "" {
		return "_"
	}
	var sb strings.Builder
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if ok {
			sb.WriteRune(c)
		} else {
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// helpFor returns the # HELP text for a family. Families not in the table
// get a generic line; the format only requires the line to exist.
func helpFor(name string) string {
	if h, ok := promHelp[name]; ok {
		return h
	}
	return "Pogo metric " + name + "."
}

var promHelp = map[string]string{
	"transport_bytes_sent_total":     "Wire bytes sent by the transport, including envelope framing.",
	"transport_bytes_received_total": "Wire bytes received by the transport.",
	"transport_messages_sent_total":  "Transport envelope transmissions, including retries.",
	"tailsync_piggyback_hits_total":  "Flushes that rode an existing 3G tail (paper sec. 4.7).",
	"energy_component_joules":        "Joules consumed per energy-model component since instrumentation.",
	"energy_joules":                  "Total joules across all energy-model components.",
	"radio_state_seconds":            "Seconds the 3G modem spent in each RRC state.",
	"radio_state_joules":             "Joules the 3G modem spent in each RRC state.",
	"radio_state_transitions_total":  "RRC state entries, by destination state.",
	"script_steps":                   "Cumulative interpreter steps per script.",
	"script_deadline_exceeded":       "Script calls killed by the execution budget (paper sec. 4.5).",
}
