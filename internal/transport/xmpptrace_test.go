package transport

import (
	"sync/atomic"
	"testing"

	"pogo/internal/msg"
	"pogo/internal/obs"
	"pogo/internal/store"
	"pogo/internal/vclock"
	"pogo/internal/xmpp"
)

// TestTraceContextOverRealXMPP proves trace propagation across process-shaped
// boundaries: the sender's endpoint, the switchboard server, and the
// receiver's endpoint each have their OWN registry (as separate processes
// would), and all three must record hops under the same wire-carried trace
// ID — sender via its outbox, server via the stanza's trace field, receiver
// via the envelope's trace field.
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

	var delivered atomic.Int32
	var gotTrace atomic.Uint64
	colEp.OnMessageTraced(func(from, channel string, payload msg.Raw, trace obs.TraceID) {
		gotTrace.Store(uint64(trace))
		delivered.Add(1)
	})

	devEp.Enqueue("collector", "battery", msg.Map{"voltage": 4.1})
	devEp.Flush()
	waitCond(t, "delivery", func() bool { return delivered.Load() == 1 })

	want := obs.NewTraceID(11, "device", 1) // first outbox id on the device
	if got := obs.TraceID(gotTrace.Load()); got != want {
		t.Fatalf("delivered trace %s, want %s", got, want)
	}
	hasStage := func(reg *obs.Registry, stage obs.Stage) bool {
		for _, h := range reg.Spans().HopsFor(want) {
			if h.Stage == stage {
				return true
			}
		}
		return false
	}
	if !hasStage(devReg, obs.StageEnqueue) || !hasStage(devReg, obs.StageSend) {
		t.Fatalf("device hops = %+v, want enqueue+send", devReg.Spans().HopsFor(want))
	}
	waitCond(t, "switchboard route hop", func() bool { return hasStage(srvReg, obs.StageRoute) })
	if !hasStage(colReg, obs.StageDeliver) {
		t.Fatalf("collector hops = %+v, want deliver", colReg.Spans().HopsFor(want))
	}
}
