// Lifecycle tracing is verified from outside the package (obs_test) so the
// test can assemble a real simulated testbed: a collector and a device wired
// through the in-memory switchboard, both instrumented into one registry.
// The traced message must yield the ordered hop chain
// publish → enqueue → send → deliver → fanout under one trace ID, and —
// because every timestamp comes from the simulated clock and every trace ID
// from the seed — two identical runs must produce identical hop lists.
package obs_test

import (
	"reflect"
	"testing"
	"time"

	"pogo/internal/android"
	"pogo/internal/core"
	"pogo/internal/energy"
	"pogo/internal/obs"
	"pogo/internal/radio"
	"pogo/internal/store"
	"pogo/internal/transport"
	"pogo/internal/vclock"
)

// runPingLifecycle builds a fresh collector+device testbed, publishes one
// message on channel "ping" from a device script five simulated seconds in,
// and returns the channel's hops in the span store's canonical order.
func runPingLifecycle(t *testing.T) []obs.Hop {
	t.Helper()
	reg := obs.NewRegistry()
	clk := vclock.NewSim()
	sb := transport.NewSwitchboard(clk)

	col, err := core.NewNode(core.Config{
		ID: "collector", Mode: core.CollectorMode, Clock: clk,
		Messenger: sb.Port("collector", nil), Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	sb.Associate("collector", "phone")
	meter := energy.NewMeter(clk)
	droid := android.NewDevice(clk, meter, android.Config{})
	modem := radio.NewModem(clk, meter, radio.KPN)
	conn := radio.NewConnectivity(modem, nil)
	dev, err := core.NewNode(core.Config{
		ID: "phone", Mode: core.DeviceMode, Clock: clk,
		Messenger: sb.Port("phone", conn), Device: droid, Modem: modem,
		Storage: store.NewMemKV(), FlushPolicy: core.FlushImmediate, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()

	if err := col.DeployLocal("collect.js", `subscribe('ping', function (m, origin) {});`); err != nil {
		t.Fatal(err)
	}
	if err := col.Deploy("ping.js", `setTimeout(function () { publish('ping', { n: 1 }); }, 5000);`); err != nil {
		t.Fatal(err)
	}
	clk.Advance(10 * time.Second)
	var hops []obs.Hop
	for _, h := range reg.Spans().Hops() {
		if h.Channel == "ping" {
			hops = append(hops, h)
		}
	}
	return hops
}

func TestMessageLifecycleTrace(t *testing.T) {
	hops := runPingLifecycle(t)

	type step struct {
		node  string
		stage obs.Stage
	}
	want := []step{
		{"phone", obs.StagePublish},     // device broker delivers to the proxy
		{"phone", obs.StageEnqueue},     // proxy buffers for the collector
		{"phone", obs.StageSend},        // immediate flush hands it to the wire
		{"collector", obs.StageDeliver}, // endpoint dedups and accepts
		{"collector", obs.StageFanout},  // collector broker reaches the script
	}
	if len(hops) != len(want) {
		t.Fatalf("trace has %d hops, want %d:\n%+v", len(hops), len(want), hops)
	}
	for i, w := range want {
		h := hops[i]
		if h.Node != w.node || h.Stage != w.stage {
			t.Errorf("hop[%d] = %s@%s, want %s@%s", i, h.Stage, h.Node, w.stage, w.node)
		}
		// One publication, one trace: the ID assigned at publish rides the
		// wire to the collector's fanout.
		if h.Trace == 0 || h.Trace != hops[0].Trace {
			t.Errorf("hop[%d] trace = %s, want the publish hop's nonzero %s", i, h.Trace, hops[0].Trace)
		}
	}

	// Timestamps are simulated time: monotone along the lifecycle, after the
	// script's 5 s timeout, inside the 10 s run, with the radio hop putting
	// delivery strictly after the send.
	epoch := vclock.SimEpoch
	for i, h := range hops {
		if h.At.Before(epoch.Add(5*time.Second)) || h.At.After(epoch.Add(10*time.Second)) {
			t.Errorf("hop[%d] at %v, outside the simulated window", i, h.At)
		}
		if i > 0 && h.At.Before(hops[i-1].At) {
			t.Errorf("hop[%d] at %v before its predecessor at %v", i, h.At, hops[i-1].At)
		}
	}
	if !hops[3].At.After(hops[2].At) {
		t.Errorf("deliver at %v not after send at %v", hops[3].At, hops[2].At)
	}

	// The send and deliver stages carry the same outbox message id.
	if hops[2].MsgID == 0 || hops[2].MsgID != hops[3].MsgID {
		t.Errorf("send/deliver msg ids = %d/%d, want equal and nonzero",
			hops[2].MsgID, hops[3].MsgID)
	}
}

func TestMessageLifecycleTraceDeterministic(t *testing.T) {
	a := runPingLifecycle(t)
	b := runPingLifecycle(t)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two identical simulated runs traced differently:\n%+v\nvs\n%+v", a, b)
	}
}
