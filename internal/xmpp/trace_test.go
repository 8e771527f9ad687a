package xmpp

import (
	"sync/atomic"
	"testing"

	"pogo/internal/obs"
)

func TestTraceAttrRoundTrip(t *testing.T) {
	traces := []obs.TraceID{obs.NewTraceID(1, "a", 1), 0, obs.NewTraceID(1, "a", 2)}
	attr := TraceAttr(traces)
	got := ParseTraceAttr(attr)
	if len(got) != len(traces) {
		t.Fatalf("parsed %d ids from %q, want %d", len(got), attr, len(traces))
	}
	for i := range traces {
		if got[i] != traces[i] {
			t.Fatalf("id %d: %s != %s (attr %q)", i, got[i], traces[i], attr)
		}
	}
	if TraceAttr(nil) != "" || TraceAttr([]obs.TraceID{0, 0}) != "" {
		t.Fatal("all-zero batches must render an empty attribute")
	}
	if ParseTraceAttr("") != nil {
		t.Fatal("empty attribute must parse to nil")
	}
	// Malformed segments degrade to untraced, not to a dropped stanza.
	if got := ParseTraceAttr("zzz,0000000000000001"); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("malformed segment parse = %v", got)
	}
}

// A batch with more IDs than fit one frame field renders only the prefix that
// fits: the switchboard loses hop tracing for the tail, never the batch.
func TestTraceAttrFitsFrameField(t *testing.T) {
	traces := make([]obs.TraceID, 300)
	for i := range traces {
		traces[i] = obs.NewTraceID(1, "a", uint64(i+1))
	}
	attr := TraceAttr(traces)
	if len(attr) > maxFrameField {
		t.Fatalf("300 IDs render %d bytes, over the %d-byte field bound", len(attr), maxFrameField)
	}
	got := ParseTraceAttr(attr)
	if len(got) != maxTraceAttrIDs || len(TraceAttr(traces[:maxTraceAttrIDs+1])) != len(attr) {
		t.Fatalf("rendered %d IDs, want the %d that fit", len(got), maxTraceAttrIDs)
	}
	for i, id := range got {
		if id != traces[i] {
			t.Fatalf("id %d: %s != %s", i, id, traces[i])
		}
	}
}

// TestServerRecordsTraceHops drives a traced stanza through the three
// switchboard paths — live route, offline queue, session-resumption replay —
// and checks each leaves its causal hop in the server's span store.
func TestServerRecordsTraceHops(t *testing.T) {
	reg := obs.NewRegistry()
	s := startServer(t, ServerConfig{AllowAutoRegister: true, Obs: reg})
	alice := dial(t, s, "alice", "pw")
	bob := dial(t, s, "bob", "pw")
	s.Associate("alice", "bob")

	var delivered atomic.Int32
	bob.OnMessageRaw(func(JID, string, []byte) { delivered.Add(1) })

	tr := obs.NewTraceID(9, "alice", 1)
	attr := TraceAttr([]obs.TraceID{tr})
	if err := alice.SendMessageBytes(MakeJID("bob"), "m1", []byte("hello"), attr); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "routed delivery", func() bool { return delivered.Load() == 1 })
	stages := func() map[obs.Stage]int {
		out := make(map[obs.Stage]int)
		for _, h := range reg.Spans().HopsFor(tr) {
			if h.Node != switchboardNode {
				t.Fatalf("hop on node %q, want %q", h.Node, switchboardNode)
			}
			out[h.Stage]++
		}
		return out
	}
	waitFor(t, "route hop", func() bool { return stages()[obs.StageRoute] == 1 })

	// Offline: queue a second traced stanza while bob is gone, then resume.
	bob.Close()
	waitFor(t, "bob offline", func() bool { return !s.Online("bob") })
	if err := alice.SendMessageBytes(MakeJID("bob"), "m2", []byte("queued"), attr); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "offline hop", func() bool { return stages()[obs.StageOffline] == 1 })

	bob2 := dial(t, s, "bob", "pw")
	bob2.OnMessageRaw(func(JID, string, []byte) { delivered.Add(1) })
	waitFor(t, "replayed delivery", func() bool { return delivered.Load() == 2 })
	waitFor(t, "replay hop", func() bool { return stages()[obs.StageReplay] == 1 })

	// Untraced stanzas leave no hops: the store only grows for the traced one.
	if err := alice.SendMessageBytes(MakeJID("bob"), "m3", []byte("plain"), ""); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "plain delivery", func() bool { return delivered.Load() == 3 })
	if got := len(reg.Spans().HopsFor(tr)); got != 3 {
		t.Fatalf("trace has %d hops, want exactly route+offline+replay", got)
	}
}
