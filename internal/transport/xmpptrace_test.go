package transport

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pogo/internal/msg"
	"pogo/internal/obs"
	"pogo/internal/pubsub"
	"pogo/internal/store"
	"pogo/internal/vclock"
	"pogo/internal/xmpp"
)

// traceRecorder collects the traces a receiving endpoint's handler is given.
type traceRecorder struct {
	mu     sync.Mutex
	traces []obs.TraceID
}

func recordTraces(ep *Endpoint) *traceRecorder {
	r := new(traceRecorder)
	ep.OnMessageTraced(func(_, _ string, _ msg.Raw, trace obs.TraceID) {
		r.mu.Lock()
		r.traces = append(r.traces, trace)
		r.mu.Unlock()
	})
	return r
}

func (r *traceRecorder) got() []obs.TraceID {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.traces)
}

// relayedPublication publishes m on a broker with the trace identity of
// node in ep's boot, whose one subscription relays to peer to as the core's proxy does — the
// event's publication number, not its trace — and returns the trace the
// broker put on the event.
func relayedPublication(t *testing.T, ep *Endpoint, node, to string, m msg.Map) obs.TraceID {
	t.Helper()
	var pubs atomic.Uint64
	pubs.Store(40) // numbers need not start at 1, nor follow the outbox IDs
	b := pubsub.New()
	b.SetTraceIdentity(obs.PublicationsOf(node, ep.BootID()), &pubs)
	var trace obs.TraceID
	b.Subscribe("battery", nil, func(ev pubsub.Event) {
		trace = ev.Trace
		if err := ep.EnqueuePublication(to, ev.Channel, ev.Message, ev.Pub, ev.Trace); err != nil {
			t.Error(err)
		}
	})
	b.Publish("battery", m)
	if trace == 0 {
		t.Fatal("the broker assigned no trace")
	}
	return trace
}

// TestTraceContextOverRealXMPP proves trace propagation across process-shaped
// boundaries: the sender's endpoint, the switchboard server, and the
// receiver's endpoint each have their OWN registry (as separate processes
// would), and all three must record hops under the same trace IDs — sender
// via its outbox, server via the stanza's trace field, receiver via the
// envelope. A root travels whole; a relayed publication travels as its
// number, and the trace the collector's handler sees is the one the
// device's broker put on the event.
func TestTraceContextOverRealXMPP(t *testing.T) {
	srvReg := obs.NewRegistry()
	srv := xmpp.NewServer(xmpp.ServerConfig{AllowAutoRegister: true, Obs: srvReg})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	srv.Associate("device", "collector")

	devM, err := DialXMPP(srv.Addr(), "device", "pw", "phone")
	if err != nil {
		t.Fatal(err)
	}
	defer devM.Close()
	colM, err := DialXMPP(srv.Addr(), "collector", "pw", "pc")
	if err != nil {
		t.Fatal(err)
	}
	defer colM.Close()

	devReg, colReg := obs.NewRegistry(), obs.NewRegistry()
	clk := vclock.Real{}
	devEp := NewEndpoint(devM, store.OpenMemory(), clk, EndpointConfig{Obs: devReg, TraceSeed: 11})
	colEp := NewEndpoint(colM, store.OpenMemory(), clk, EndpointConfig{Obs: colReg, TraceSeed: 11})
	rec := recordTraces(colEp)

	devEp.Enqueue("collector", "battery", msg.Map{"voltage": 4.1})
	pub := relayedPublication(t, devEp, "device", "collector", msg.Map{"voltage": 4.2})
	devEp.Flush()
	waitCond(t, "delivery", func() bool { return len(rec.got()) == 2 })

	root := obs.NewTraceID(11, "device", 1) // first outbox id on the device
	if got, want := rec.got(), []obs.TraceID{root, pub}; !slices.Equal(got, want) {
		t.Fatalf("delivered traces %v, want the root %s and the publication's %s", got, root, pub)
	}
	hasStage := func(reg *obs.Registry, trace obs.TraceID, stage obs.Stage) bool {
		for _, h := range reg.Spans().HopsFor(trace) {
			if h.Stage == stage {
				return true
			}
		}
		return false
	}
	for _, trace := range []obs.TraceID{root, pub} {
		if !hasStage(devReg, trace, obs.StageEnqueue) || !hasStage(devReg, trace, obs.StageSend) {
			t.Fatalf("device hops = %+v, want enqueue+send", devReg.Spans().HopsFor(trace))
		}
		waitCond(t, "switchboard route hop", func() bool { return hasStage(srvReg, trace, obs.StageRoute) })
		if !hasStage(colReg, trace, obs.StageDeliver) {
			t.Fatalf("collector hops = %+v, want deliver", colReg.Spans().HopsFor(trace))
		}
	}
}

// TestPublicationTraceOverMemnet: over the in-memory switchboard too, the
// collector's handler sees the trace the device's broker put on a relayed
// publication.
func TestPublicationTraceOverMemnet(t *testing.T) {
	clk := vclock.NewSim()
	sb := NewSwitchboard(clk)
	sb.Associate("dev1", "col")
	dev := newSimNode(t, clk, sb, "dev1")
	col := newWiredNode(t, clk, sb, "col")
	rec := recordTraces(col)

	want := relayedPublication(t, dev.ep, "dev1", "col", msg.Map{"voltage": 4.2})
	dev.ep.Flush()
	clk.Advance(time.Minute)
	if got := rec.got(); !slices.Equal(got, []obs.TraceID{want}) {
		t.Fatalf("delivered traces %v, want the publication's %s", got, want)
	}
}
