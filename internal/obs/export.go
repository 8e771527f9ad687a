package obs

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
)

// Chrome Trace Event Format export (the trace.json Perfetto and
// chrome://tracing load): every retained hop becomes a complete ("X") slice
// on its node's track, and cross-node causal edges become flow arrows. The
// output is a pure function of the retained hop set — hops are content-
// sorted by the SpanStore before rendering and every id in the file derives
// from hop content — so same-seed runs export byte-identical files
// regardless of shard count or goroutine interleaving.

// traceEvent is one entry of the "traceEvents" array. Field order is fixed
// by the struct, keeping the marshaled bytes deterministic.
type traceEvent struct {
	Name string          `json:"name"`
	Cat  string          `json:"cat,omitempty"`
	Ph   string          `json:"ph"`
	Ts   int64           `json:"ts"` // microseconds since first hop
	Dur  int64           `json:"dur,omitempty"`
	Pid  int             `json:"pid"`
	Tid  int             `json:"tid"`
	ID   string          `json:"id,omitempty"`
	BP   string          `json:"bp,omitempty"`
	Args *traceEventArgs `json:"args,omitempty"`
}

type traceEventArgs struct {
	Name   string `json:"name,omitempty"` // thread_name metadata
	Trace  string `json:"trace,omitempty"`
	Msg    uint64 `json:"msg,omitempty"`
	Detail string `json:"detail,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteTraceJSON renders the registry's span store as Chrome Trace Event
// JSON. Safe on a nil registry (writes an empty trace).
func WriteTraceJSON(w io.Writer, r *Registry) error {
	return writeTraceJSONHops(w, r.Spans().Hops())
}

func writeTraceJSONHops(w io.Writer, hops []Hop) error {
	out := traceFile{TraceEvents: []traceEvent{}, DisplayTimeUnit: "ms"}
	if len(hops) > 0 {
		// Stable thread ids: sorted node names, 1-based.
		nodeSet := make(map[string]struct{})
		epoch := hops[0].At
		for _, h := range hops {
			nodeSet[h.Node] = struct{}{}
			if h.At.Before(epoch) {
				epoch = h.At
			}
		}
		nodes := make([]string, 0, len(nodeSet))
		for n := range nodeSet {
			nodes = append(nodes, n)
		}
		sort.Strings(nodes)
		tid := make(map[string]int, len(nodes))
		for i, n := range nodes {
			tid[n] = i + 1
			out.TraceEvents = append(out.TraceEvents, traceEvent{
				Name: "thread_name", Ph: "M", Pid: 1, Tid: i + 1,
				Args: &traceEventArgs{Name: n},
			})
		}
		ts := func(h Hop) int64 { return h.At.Sub(epoch).Microseconds() }
		// Hops arrive sorted by trace then time; walk each trace's group.
		for i := 0; i < len(hops); {
			j := i
			for j < len(hops) && hops[j].Trace == hops[i].Trace {
				j++
			}
			group := hops[i:j]
			hex := group[0].Trace.String()
			for k, h := range group {
				dur := int64(1)
				if k+1 < len(group) {
					if d := ts(group[k+1]) - ts(h); d > dur {
						dur = d
					}
				}
				cat := h.Channel
				if cat == "" {
					cat = "pogo"
				}
				out.TraceEvents = append(out.TraceEvents, traceEvent{
					Name: string(h.Stage), Cat: cat, Ph: "X",
					Ts: ts(h), Dur: dur, Pid: 1, Tid: tid[h.Node],
					Args: &traceEventArgs{Trace: hex, Msg: h.MsgID, Detail: h.Detail},
				})
				// Causal flow arrow to the next hop when it changes node.
				if k+1 < len(group) && group[k+1].Node != h.Node {
					id := hex + "-" + strconv.Itoa(k)
					next := group[k+1]
					out.TraceEvents = append(out.TraceEvents,
						traceEvent{Name: "hop", Cat: cat, Ph: "s", Ts: ts(h), Pid: 1, Tid: tid[h.Node], ID: id},
						traceEvent{Name: "hop", Cat: cat, Ph: "f", BP: "e", Ts: ts(next), Pid: 1, Tid: tid[next.Node], ID: id},
					)
				}
			}
			i = j
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&out)
}

// TopicLatency is the delivery-latency SLO snapshot of one channel,
// quantiles estimated from the trace_delivery_latency_seconds histogram.
type TopicLatency struct {
	Channel string  `json:"channel"`
	Count   int64   `json:"count"`
	P50     float64 `json:"p50"`
	P95     float64 `json:"p95"`
	P99     float64 `json:"p99"`
}

// latencyFamily is the histogram family LatencyReport aggregates.
const latencyFamily = "trace_delivery_latency_seconds"

// LatencyReport extracts the per-topic delivery-latency SLO snapshot,
// sorted by channel. Empty (not nil-panicking) on a nil registry.
func LatencyReport(r *Registry) []TopicLatency {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	type pair struct {
		channel string
		snap    HistogramSnapshot
	}
	var pairs []pair
	for k, m := range r.meta {
		if m.name != latencyFamily {
			continue
		}
		h, ok := r.hists[k]
		if !ok {
			continue
		}
		channel := ""
		for _, l := range m.labels {
			if l.Key == "channel" {
				channel = l.Value
			}
		}
		pairs = append(pairs, pair{channel, h.snapshot()})
	}
	r.mu.Unlock()
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].channel < pairs[j].channel })
	out := make([]TopicLatency, 0, len(pairs))
	for _, p := range pairs {
		out = append(out, TopicLatency{
			Channel: p.channel,
			Count:   p.snap.Count,
			P50:     p.snap.quantile(0.50),
			P95:     p.snap.quantile(0.95),
			P99:     p.snap.quantile(0.99),
		})
	}
	return out
}
