package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// Flight recorder: when a chaos/fleet audit fails (a 0-lost/0-dup violation,
// previously reported only as "hash divergence, good luck"), the recent
// contents of the span store are dumped to disk as a replayable causal
// timeline. The dump is self-contained JSON — hops plus enough structure to
// rebuild every span tree offline with LoadFlightDump.

// FlightTrace is one trace's retained hops, canonically ordered.
type FlightTrace struct {
	Trace TraceID `json:"trace"`
	Hops  []Hop   `json:"hops"`
}

// FlightDump is the on-disk flight-recorder format.
type FlightDump struct {
	// Reason describes the audit failure that triggered the dump.
	Reason string `json:"reason"`
	// At is the (simulated) instant the dump was taken.
	At time.Time `json:"at"`
	// DroppedHops counts ring evictions before the dump: when nonzero, the
	// oldest traces below may be truncated.
	DroppedHops uint64        `json:"dropped_hops"`
	Traces      []FlightTrace `json:"traces"`
}

// BuildFlightDump captures the registry's span store. Works (emptily) on a
// nil registry so dump paths need no observability branch.
func BuildFlightDump(r *Registry, reason string, at time.Time) *FlightDump {
	d := &FlightDump{Reason: reason, At: at, DroppedHops: r.Spans().Dropped(), Traces: []FlightTrace{}}
	hops := r.Spans().Hops() // sorted by trace, then canonical hop order
	for i := 0; i < len(hops); {
		j := i
		for j < len(hops) && hops[j].Trace == hops[i].Trace {
			j++
		}
		d.Traces = append(d.Traces, FlightTrace{
			Trace: hops[i].Trace,
			Hops:  append([]Hop(nil), hops[i:j]...),
		})
		i = j
	}
	return d
}

// WriteFile serializes the dump as indented JSON at path.
func (d *FlightDump) WriteFile(path string) error {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshal flight dump: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// DumpFlightFile is the one-call form: capture the span store and write it.
func DumpFlightFile(path string, r *Registry, reason string, at time.Time) error {
	return BuildFlightDump(r, reason, at).WriteFile(path)
}

// LoadFlightDump parses a dump written by WriteFile.
func LoadFlightDump(path string) (*FlightDump, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d FlightDump
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("obs: parse flight dump %s: %w", path, err)
	}
	return &d, nil
}

// Tree rebuilds the span tree of one dumped trace (nil if absent).
func (d *FlightDump) Tree(trace TraceID) *SpanNode {
	for _, t := range d.Traces {
		if t.Trace == trace {
			return assembleTree(t.Hops)
		}
	}
	return nil
}

// Incomplete lists dumped traces that entered the transport (publish or
// enqueue hop present) but reached no terminal stage (deliver or expire) —
// the in-flight messages an audit failure most wants explained. Sorted
// ascending.
func (d *FlightDump) Incomplete() []TraceID {
	var out []TraceID
	for _, t := range d.Traces {
		var started, terminal bool
		for _, h := range t.Hops {
			switch h.Stage {
			case StagePublish, StageEnqueue:
				started = true
			case StageDeliver, StageExpire:
				terminal = true
			}
		}
		if started && !terminal {
			out = append(out, t.Trace)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
