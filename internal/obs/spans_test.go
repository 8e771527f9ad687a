package obs

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func hopAt(sec int, trace TraceID, stage Stage, node string) Hop {
	return Hop{Trace: trace, At: time.Unix(int64(sec), 0), Stage: stage, Node: node, Channel: "ch"}
}

func TestNewTraceIDDeterministic(t *testing.T) {
	a := NewTraceID(7, "phone01", 3)
	if a != NewTraceID(7, "phone01", 3) {
		t.Fatal("same inputs produced different trace IDs")
	}
	distinct := map[TraceID]string{a: "base"}
	for name, id := range map[string]TraceID{
		"other seed":   NewTraceID(8, "phone01", 3),
		"other entity": NewTraceID(7, "phone02", 3),
		"other seq":    NewTraceID(7, "phone01", 4),
		// The NUL separator keeps (entity, seq) unambiguous: "phone0" + 13
		// must not collide with "phone01" + 3 by concatenation.
		"entity/seq shift": NewTraceID(7, "phone0", 13),
	} {
		if id == 0 {
			t.Fatalf("%s: derived the reserved zero ID", name)
		}
		if prev, dup := distinct[id]; dup {
			t.Fatalf("%s collided with %s: %s", name, prev, id)
		}
		distinct[id] = name
	}
}

func TestTraceIDJSONRoundTrip(t *testing.T) {
	in := NewTraceID(1, "n", 1)
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if want := `"` + in.String() + `"`; string(b) != want {
		t.Fatalf("marshal = %s, want %s", b, want)
	}
	var out TraceID
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip %s != %s", out, in)
	}
	if err := json.Unmarshal([]byte(`"zz"`), &out); err == nil {
		t.Fatal("malformed hex unmarshalled without error")
	}
}

// TestAssembleTreeOutOfOrder feeds a full hop set in scrambled recording
// order: the tree must still root at enqueue with each later stage nested
// under its causal parent, because assembly orders by content, never arrival.
func TestAssembleTreeOutOfOrder(t *testing.T) {
	tr := NewTraceID(1, "phone", 1)
	hops := []Hop{
		hopAt(40, tr, StageDeliver, "collector"),
		hopAt(20, tr, StageSend, "phone"),
		hopAt(10, tr, StageEnqueue, "phone"),
		hopAt(30, tr, StageSend, "phone"), // retransmission
	}
	st := NewSpanStore(16)
	for _, h := range hops {
		st.Record(h.At, h.Trace, h.Stage, h.Node, h.Channel, h.MsgID, h.Detail)
	}
	tree := st.Tree(tr)
	if tree == nil || tree.Hop.Stage != StageEnqueue {
		t.Fatalf("tree root = %+v, want enqueue", tree)
	}
	got := tree.Stages()
	want := []Stage{StageEnqueue, StageSend, StageSend, StageDeliver}
	if len(got) != len(want) {
		t.Fatalf("stages = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stages = %v, want %v", got, want)
		}
	}
	// Both sends are siblings under enqueue; deliver hangs off a send.
	if len(tree.Children) != 2 {
		t.Fatalf("enqueue has %d children, want the 2 sends", len(tree.Children))
	}
}

// TestSpanStoreDuplicateHops: the same hop recorded twice (duplicated
// delivery of the hop event itself) collapses to one node in every view.
func TestSpanStoreDuplicateHops(t *testing.T) {
	tr := NewTraceID(1, "phone", 2)
	st := NewSpanStore(16)
	for i := 0; i < 3; i++ {
		st.Record(time.Unix(10, 0), tr, StageEnqueue, "phone", "ch", 1, "")
	}
	st.Record(time.Unix(20, 0), tr, StageDeliver, "collector", "ch", 1, "")
	if hops := st.HopsFor(tr); len(hops) != 2 {
		t.Fatalf("HopsFor kept %d hops, want 2 (exact duplicates collapse)", len(hops))
	}
	if tree := st.Tree(tr); len(tree.Children) != 1 {
		t.Fatalf("tree = %+v, want enqueue -> deliver", tree)
	}
}

func TestSpanStoreEvictionCountsDrops(t *testing.T) {
	st := NewSpanStore(2)
	fired := 0
	st.OnDrop(func() { fired++ })
	tr := NewTraceID(1, "n", 1)
	for i := 0; i < 5; i++ {
		st.Record(time.Unix(int64(i), 0), tr, StageSend, "n", "ch", 1, "")
	}
	if st.Len() != 2 {
		t.Fatalf("Len = %d, want capacity 2", st.Len())
	}
	if st.Dropped() != 3 || fired != 3 {
		t.Fatalf("Dropped = %d, hook fired %d, want 3/3", st.Dropped(), fired)
	}
	// Zero-trace hops are untraced noise, never recorded or counted.
	st.Record(time.Unix(9, 0), 0, StageSend, "n", "ch", 1, "")
	if st.Len() != 2 || st.Dropped() != 3 {
		t.Fatal("zero-trace record must be a no-op")
	}
	// Reset empties the ring; the drop count is history and stays.
	st.Reset()
	if st.Len() != 0 || len(st.Hops()) != 0 || st.Dropped() != 3 {
		t.Fatalf("after Reset: Len = %d, Dropped = %d, want 0/3", st.Len(), st.Dropped())
	}
}

// TestRootsIndexSweptOnLongLivedStore: the first-hop index behind the
// delivery-latency histogram is bounded, and a store that has seen far more
// traces than the bound must make room by forgetting traces older than
// anything left in the ring — not by refusing every new trace, which would
// blind trace_delivery_latency_seconds (and the delivery_latency_slo rule)
// for the rest of the process's life.
func TestRootsIndexSweptOnLongLivedStore(t *testing.T) {
	const capacity = 4
	reg := NewRegistry()
	st := NewSpanStore(capacity)
	st.latencyFor = reg.spans.latencyFor
	bound := rootsPerHop * capacity
	traces := 10 * bound
	for i := 1; i <= traces; i++ {
		at := time.Unix(int64(2*i), 0)
		st.Record(at, TraceID(i), StageEnqueue, "phone", "upload", uint64(i), "")
		st.Record(at.Add(time.Second), TraceID(i), StageDeliver, "collector", "upload", uint64(i), "")
		st.mu.Lock()
		n := len(st.roots)
		st.mu.Unlock()
		if n > bound {
			t.Fatalf("after %d traces the roots index holds %d, bound %d", i, n, bound)
		}
	}
	rep := LatencyReport(reg)
	if len(rep) != 1 || rep[0].Count != int64(traces) {
		t.Fatalf("LatencyReport = %+v, want all %d deliveries observed, the last included", rep, traces)
	}
}

// TestRegistryDropCountersLazy: a pristine registry exposes no drop counters
// (keeping snapshot cardinality unchanged for pre-tracing consumers), but the
// first eviction registers and bumps trace_dropped_spans, and the /stats text
// always reports the tracing section.
func TestRegistryDropCountersLazy(t *testing.T) {
	reg := NewRegistry()
	if _, ok := reg.Snapshot().Counters["trace_dropped_spans"]; ok {
		t.Fatal("drop counter registered before any drop")
	}
	tr := NewTraceID(1, "n", 1)
	for i := 0; i <= DefaultSpanCapacity; i++ {
		reg.Spans().Record(time.Unix(int64(i), 0), tr, StageSend, "n", "ch", 1, "")
	}
	if got := reg.Snapshot().Counters["trace_dropped_spans"]; got != 1 {
		t.Fatalf("trace_dropped_spans = %v, want 1", got)
	}
	var buf bytes.Buffer
	WriteText(&buf, reg)
	if !strings.Contains(buf.String(), "span hops dropped") {
		t.Fatalf("stats text missing tracing section:\n%s", buf.String())
	}
}

func TestDeliveryLatencyHistogram(t *testing.T) {
	reg := NewRegistry()
	tr := NewTraceID(1, "phone", 1)
	reg.Spans().Record(time.Unix(10, 0), tr, StageEnqueue, "phone", "upload", 1, "")
	reg.Spans().Record(time.Unix(12, 0), tr, StageDeliver, "collector", "upload", 1, "")
	rep := LatencyReport(reg)
	if len(rep) != 1 || rep[0].Channel != "upload" || rep[0].Count != 1 {
		t.Fatalf("LatencyReport = %+v, want one upload delivery", rep)
	}
	// 2 s latency lands in the 2.5 s bucket: every quantile interpolates
	// inside (1, 2.5].
	if rep[0].P50 <= 1 || rep[0].P50 > 2.5 {
		t.Fatalf("p50 = %v, want within the 2.5s bucket", rep[0].P50)
	}
}

// TestTraceJSONDeterministicOrder: the export depends only on the hop set,
// not recording order.
func TestTraceJSONDeterministicOrder(t *testing.T) {
	tr1 := NewTraceID(1, "a", 1)
	tr2 := NewTraceID(1, "b", 1)
	hops := []Hop{
		hopAt(10, tr1, StageEnqueue, "a"),
		hopAt(20, tr1, StageDeliver, "b"),
		hopAt(15, tr2, StageEnqueue, "b"),
		hopAt(25, tr2, StageDeliver, "a"),
	}
	render := func(order []int) string {
		reg := NewRegistry()
		for _, i := range order {
			h := hops[i]
			reg.Spans().Record(h.At, h.Trace, h.Stage, h.Node, h.Channel, h.MsgID, h.Detail)
		}
		var buf bytes.Buffer
		if err := WriteTraceJSON(&buf, reg); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := render([]int{0, 1, 2, 3})
	b := render([]int{3, 1, 2, 0})
	if a != b {
		t.Fatalf("trace JSON depends on recording order:\n%s\nvs\n%s", a, b)
	}
	var tf map[string]any
	if err := json.Unmarshal([]byte(a), &tf); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	// Cross-node enqueue→deliver pairs must emit flow ("s"/"f") events.
	if !strings.Contains(a, `"ph":"s"`) || !strings.Contains(a, `"ph":"f"`) {
		t.Fatalf("export missing flow events:\n%s", a)
	}
}

func TestFlightDumpRoundTrip(t *testing.T) {
	reg := NewRegistry()
	done := NewTraceID(1, "phone", 1)
	stuck := NewTraceID(1, "phone", 2)
	reg.Spans().Record(time.Unix(10, 0), done, StageEnqueue, "phone", "upload", 1, "")
	reg.Spans().Record(time.Unix(12, 0), done, StageDeliver, "collector", "upload", 1, "")
	reg.Spans().Record(time.Unix(11, 0), stuck, StageEnqueue, "phone", "upload", 2, "")
	reg.Spans().Record(time.Unix(13, 0), stuck, StageSend, "phone", "upload", 2, "attempt=1")

	path := filepath.Join(t.TempDir(), "flight.json")
	if err := DumpFlightFile(path, reg, "test audit failure", time.Unix(13, 0)); err != nil {
		t.Fatal(err)
	}
	d, err := LoadFlightDump(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Reason != "test audit failure" || len(d.Traces) != 2 {
		t.Fatalf("dump = %+v, want 2 traces", d)
	}
	inflight := d.Incomplete()
	if len(inflight) != 1 || inflight[0] != stuck {
		t.Fatalf("Incomplete = %v, want [%s]", inflight, stuck)
	}
	tree := d.Tree(stuck)
	if tree == nil || tree.Hop.Stage != StageEnqueue || len(tree.Children) != 1 ||
		tree.Children[0].Hop.Stage != StageSend {
		t.Fatalf("reassembled tree = %+v, want enqueue -> send", tree)
	}
	if d.Tree(done).Hop.Stage != StageEnqueue {
		t.Fatal("delivered trace lost its tree in the round trip")
	}
}
