package transport

import (
	"encoding/base64"
	"errors"
	"math/rand"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"pogo/internal/alloctest"
	"pogo/internal/faultnet"
	"pogo/internal/msg"
	"pogo/internal/obs"
	"pogo/internal/store"
	"pogo/internal/vclock"
	"pogo/internal/xmpp"
)

// cuttingBatcher wraps a Messenger with a BatchSender whose coalesced write
// dies mid-batch: the first cutAt envelopes of each batch are handed to the
// underlying messenger, the rest are reported as unaccepted. When overshoot
// is set, one extra envelope is actually transmitted beyond the reported
// prefix — the mid-write TCP cut, where bytes left the machine but the
// sender cannot know — so the endpoint retransmits an envelope the receiver
// already has and the dedup layer must swallow it.
type cuttingBatcher struct {
	Messenger
	cutAt     int
	maxCuts   int // connection heals after this many cuts
	overshoot bool
	cuts      int
}

func (m *cuttingBatcher) SendBatch(batch []Outgoing) (int, error) {
	n := len(batch)
	cut := m.cuts < m.maxCuts && m.cutAt < n
	if cut {
		n = m.cutAt
	}
	send := n
	if cut && m.overshoot && send < len(batch) {
		send++
	}
	for i := 0; i < send; i++ {
		if err := m.Messenger.Send(batch[i].To, batch[i].Payload); err != nil {
			if i < n {
				return i, err
			}
			break
		}
	}
	if cut {
		m.cuts++
		return n, errors.New("connection cut mid-batch")
	}
	return n, nil
}

// TestBatchCutRetransmitsWithoutDuplicates: a coalesced flush write cut
// mid-batch must degrade into retries — every message still arrives exactly
// once, per channel in FIFO order, even when the cut byte-stream already
// carried an envelope beyond the accepted prefix (forcing receiver dedup).
func TestBatchCutRetransmitsWithoutDuplicates(t *testing.T) {
	dests := []string{"c1", "c2", "c3", "c4"}
	for cutAt := 0; cutAt <= len(dests); cutAt++ {
		for _, overshoot := range []bool{false, true} {
			clk := vclock.NewSim()
			sb := NewSwitchboard(clk)
			for _, d := range dests {
				sb.Associate("phone", d)
			}
			cb := &cuttingBatcher{Messenger: sb.Port("phone", nil), cutAt: cutAt, maxCuts: 3, overshoot: overshoot}
			ep := NewEndpoint(cb, store.OpenMemory(), clk, EndpointConfig{RetryAfter: 2 * time.Second})

			got := map[string][]float64{}
			var dupes int
			cols := make([]*Endpoint, len(dests))
			for i, d := range dests {
				d := d
				cols[i] = NewEndpoint(sb.Port(d, nil), store.OpenMemory(), clk, EndpointConfig{})
				cols[i].OnMessage(func(_, _ string, payload msg.Value) {
					n, _ := msg.GetNumber(payload.(msg.Raw), "n")
					got[d] = append(got[d], n)
				})
			}

			const perDest = 3
			for i := 0; i < perDest; i++ {
				for _, d := range dests {
					if err := ep.Enqueue(d, "ch", msg.Map{"n": float64(i)}); err != nil {
						t.Fatal(err)
					}
				}
			}
			// The first few flush writes are cut mid-batch; once the
			// connection heals, retries must complete delivery. The second
			// Flush per round re-sends the unaccepted suffix before the
			// in-flight bytes of the first write are delivered — so an
			// overshot envelope really does arrive twice at the receiver.
			for i := 0; i < 40 && ep.Pending() > 0; i++ {
				ep.Flush()
				ep.Flush()
				clk.Advance(3 * time.Second)
			}
			if ep.Pending() != 0 {
				t.Fatalf("cutAt=%d overshoot=%v: %d undelivered", cutAt, overshoot, ep.Pending())
			}
			if cutAt < len(dests) && cb.cuts == 0 {
				t.Fatalf("cutAt=%d: batch was never cut", cutAt)
			}
			for i, d := range dests {
				ns := got[d]
				if len(ns) != perDest {
					t.Fatalf("cutAt=%d overshoot=%v: %s got %v, want %d messages",
						cutAt, overshoot, d, ns, perDest)
				}
				for j, n := range ns {
					if n != float64(j) {
						t.Fatalf("cutAt=%d overshoot=%v: %s FIFO violated: %v", cutAt, overshoot, d, ns)
					}
				}
				dupes += cols[i].Stats().Duplicates
			}
			if overshoot && cutAt < len(dests) && dupes == 0 {
				t.Fatalf("cutAt=%d overshoot: no duplicate ever reached a receiver — overshoot not exercised", cutAt)
			}
		}
	}
}

// batchFault turns a faultnet-wrapped port into a BatchSender so the
// coalescing flush path runs under the full fault schedule. Each batch is
// additionally cut at a seeded random position, like TCP dying mid-write.
type batchFault struct {
	Messenger
	rng *rand.Rand
}

func (m *batchFault) SendBatch(batch []Outgoing) (int, error) {
	n := len(batch)
	cut := m.rng.Intn(n + 1)
	for i := 0; i < cut; i++ {
		if err := m.Messenger.Send(batch[i].To, batch[i].Payload); err != nil {
			return i, err
		}
	}
	if cut < n {
		return cut, errors.New("cut mid-batch")
	}
	return n, nil
}

// Property: the exactly-once / per-channel-FIFO contract survives the
// coalescing path under any seeded fault schedule (drop, duplicate, corrupt,
// delay, plus batch cuts at random positions) with eventual connectivity.
func TestPropertyBatchedFlushExactlyOnce(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 20,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(r.Int63())
			args[1] = reflect.ValueOf(r.Intn(40))     // drop pct
			args[2] = reflect.ValueOf(r.Intn(30))     // duplicate pct
			args[3] = reflect.ValueOf(r.Intn(25))     // corrupt pct
			args[4] = reflect.ValueOf(1 + r.Intn(20)) // messages per channel
		},
	}
	channels := []string{"battery", "clusters"}
	prop := func(seed int64, dropPct, dupPct, corruptPct, perChan int) bool {
		clk := vclock.NewSim()
		net, fa, fb := faultPair(clk, faultnet.Config{
			Seed:      seed,
			Drop:      float64(dropPct) / 100,
			Duplicate: float64(dupPct) / 100,
			Corrupt:   float64(corruptPct) / 100,
			MaxDelay:  120 * time.Millisecond,
		})
		ba := &batchFault{Messenger: fa, rng: rand.New(rand.NewSource(seed ^ 0x5bd1e995))}
		epA := NewEndpoint(ba, store.OpenMemory(), clk, EndpointConfig{RetryAfter: 2 * time.Second})
		epB := NewEndpoint(fb, store.OpenMemory(), clk, EndpointConfig{RetryAfter: 2 * time.Second})
		got := map[string][]float64{}
		epB.OnMessage(func(_, ch string, payload msg.Value) {
			n, _ := msg.GetNumber(payload.(msg.Raw), "n")
			got[ch] = append(got[ch], n)
		})
		for i := 0; i < perChan; i++ {
			for _, ch := range channels {
				if err := epA.Enqueue("b", ch, msg.Map{"n": float64(i)}); err != nil {
					return false
				}
			}
		}
		for i := 0; i < 60; i++ {
			epA.Flush()
			clk.Advance(3 * time.Second)
		}
		net.Calm()
		for i := 0; i < 300 && epA.Pending() > 0; i++ {
			epA.Flush()
			clk.Advance(3 * time.Second)
		}
		if epA.Pending() != 0 {
			t.Logf("seed=%d: %d undelivered through batched path", seed, epA.Pending())
			return false
		}
		for _, ch := range channels {
			ns := got[ch]
			if len(ns) != perChan {
				t.Logf("seed=%d: channel %s delivered %d of %d", seed, ch, len(ns), perChan)
				return false
			}
			for i, n := range ns {
				if n != float64(i) {
					t.Logf("seed=%d: channel %s position %d = %v (FIFO violated)", seed, ch, i, n)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestCorruptWrapCountsDropped: the two retired representations — a JSON
// envelope (correctly CRC-framed, so only the envelope decoder can refuse it)
// and a "b:"+base64-wrapped frame — are malformed input like any other. Each
// must be counted in the endpoint's CorruptDropped stat and the
// transport_corrupt_dropped_total counter that pogo-doctor's data-flow check
// reads, and deliver nothing.
func TestCorruptWrapCountsDropped(t *testing.T) {
	srv := startXMPP(t)
	srv.Associate("evil", "collector")

	reg := obs.NewRegistry()
	colM, err := DialXMPP(srv.Addr(), "collector", "pw", "pc")
	if err != nil {
		t.Fatal(err)
	}
	defer colM.Close()
	colEp := NewEndpoint(colM, store.OpenMemory(), vclock.Real{}, EndpointConfig{Obs: reg})
	var mu sync.Mutex
	delivered := 0
	colEp.OnMessage(func(string, string, msg.Value) {
		mu.Lock()
		delivered++
		mu.Unlock()
	})

	evil, err := xmpp.Dial(srv.Addr(), "evil", "pw", "r")
	if err != nil {
		t.Fatal(err)
	}
	defer evil.Close()
	jsonEnv := frameInto(append(frameHeader[:],
		`{"from":"evil","batch":[{"id":1,"seq":0,"ch":"x","body":{"n":1}}]}`...))
	if _, err := unframe(jsonEnv); err != nil {
		t.Fatalf("JSON envelope must pass the CRC check to reach the decoder: %v", err)
	}
	valid := frameInto(appendEnvelope(append([]byte(nil), frameHeader[:]...), new(chanTable), "evil", "",
		[]envelopeItem{{ID: 1, Channel: "x", Body: []byte{0x00}}}, nil, nil, nil))
	wrapped := "b:" + base64.StdEncoding.EncodeToString(valid)
	for i, payload := range [][]byte{jsonEnv, []byte(wrapped)} {
		if err := evil.SendMessageBytes(xmpp.MakeJID("collector"), strconv.Itoa(i), payload, ""); err != nil {
			t.Fatal(err)
		}
	}

	waitCond(t, "both refusals counted", func() bool {
		return colEp.Stats().CorruptDropped == 2
	})
	if n := reg.CounterValue("transport_corrupt_dropped_total", obs.L("node", "collector")); n != 2 {
		t.Errorf("transport_corrupt_dropped_total = %d, want 2", n)
	}
	mu.Lock()
	defer mu.Unlock()
	if delivered != 0 {
		t.Errorf("refused payloads were delivered %d times", delivered)
	}
}

// A flush of more messages than fit one stanza trace field (241 IDs) must
// still go out as one stanza and drain exactly once, in order: the trace
// field is trimmed to what fits instead of overflowing the server's frame
// bound, which used to reset the stream and retransmit the same oversized
// batch for ever.
func TestLargeFlushDrainsOnceOverRealXMPP(t *testing.T) {
	srvReg := obs.NewRegistry()
	srv := xmpp.NewServer(xmpp.ServerConfig{AllowAutoRegister: true, Obs: srvReg})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	srv.Associate("device", "collector")

	devReg := obs.NewRegistry()
	devM, err := DialXMPP(srv.Addr(), "device", "pw", "phone")
	if err != nil {
		t.Fatal(err)
	}
	defer devM.Close()
	devM.Instrument(devReg)
	colM, err := DialXMPP(srv.Addr(), "collector", "pw", "pc")
	if err != nil {
		t.Fatal(err)
	}
	defer colM.Close()
	devEp := NewEndpoint(devM, store.OpenMemory(), vclock.Real{}, EndpointConfig{})
	colEp := NewEndpoint(colM, store.OpenMemory(), vclock.Real{}, EndpointConfig{})
	var mu sync.Mutex
	var got []float64
	colEp.OnMessage(func(_, _ string, payload msg.Value) {
		n, _ := msg.GetNumber(payload.(msg.Raw), "n")
		mu.Lock()
		got = append(got, n)
		mu.Unlock()
	})

	const total = 300
	for i := 0; i < total; i++ {
		if err := devEp.Enqueue("collector", "bulk", msg.Map{"n": float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if sent := devEp.Flush(); sent != total {
		t.Fatalf("Flush handed off %d messages, want %d", sent, total)
	}
	waitCond(t, "all delivered and acked", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == total && devEp.Pending() == 0
	})
	mu.Lock()
	defer mu.Unlock()
	for i, n := range got {
		if n != float64(i) {
			t.Fatalf("delivery %d carries n=%v: out of order", i, n)
		}
	}
	dev, col := devEp.Stats(), colEp.Stats()
	if dev.MessagesSent != total || dev.Retries != 0 || col.Duplicates != 0 || col.MessagesReceived != total {
		t.Errorf("not drained exactly once: sender %+v, receiver %+v", dev, col)
	}
	if n := devReg.CounterValue("xmpp_reconnects_total", obs.L("node", "device")); n != 0 {
		t.Errorf("stream was reset %d times", n)
	}
	// The server counts a stanza after writing it, so the phone may have
	// settled the ack before the count moves.
	routed := func() int64 { return srvReg.CounterValue("xmpp_server_stanzas_routed_total") }
	waitCond(t, "the server to count the ack it routed", func() bool { return routed() >= 2 })
	if n := routed(); n != 2 {
		t.Errorf("server routed %d stanzas, want one envelope and one ack", n)
	}
}

// TestRoundTripSteadyStateAllocs is the buffer-reuse regression guard:
// after warm-up, one enqueue→flush→deliver→ack round trip must stay within
// the hot-path allocation budget, with one phone on the switchboard and with
// a thousand. A buffer that stops being reused (an error path dropping the
// write buffer, a scratch remade per receive) shows up here as steady-state
// allocations creeping up; per-phone state that grows with the fleet
// (rosters, dedup cursors, sequence maps) as the 1 000-phone row costing
// more.
//
// Measured: 5 allocs — the enqueue's encoding, memnet's copy and its hop in
// each direction, and the collector's view of the message — and 504 B with
// one phone, 496 B with a thousand. A bytes figure fails only when it grows
// by more than 15 % and more than 64 B.
func TestRoundTripSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		phones       int
		bytesCeiling float64
	}{{1, 504 * 1.15}, {1000, 496 * 1.15}} {
		roundtrip, delivered := roundTrip(t, tc.phones)
		for i := 0; i < 100; i++ { // grow the scratch, warm interning and the frozen-body cache
			roundtrip()
		}
		if allocs := testing.AllocsPerRun(200, roundtrip); allocs > 5 {
			t.Errorf("%d phones: steady-state round trip = %.2f allocs, budget 5", tc.phones, allocs)
		}
		if b := alloctest.BytesPerRun(200, roundtrip); b > tc.bytesCeiling {
			t.Errorf("%d phones: steady-state round trip = %.0f B, ceiling %.0f", tc.phones, b, tc.bytesCeiling)
		}
		if want := tc.phones + 100 + 1 + 200 + 1 + 200; *delivered != want {
			t.Errorf("%d phones: delivered %d of %d", tc.phones, *delivered, want)
		}
	}
}

func BenchmarkRoundTrip(b *testing.B)         { benchRoundTrip(b, 1) }
func BenchmarkRoundTrip1kPhones(b *testing.B) { benchRoundTrip(b, 1000) }

func benchRoundTrip(b *testing.B, phones int) {
	roundtrip, _ := roundTrip(b, phones)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundtrip()
	}
}

// roundTrip associates n phones with a collector on the simulated
// switchboard, delivers one message from each so that what follows is
// steady state, not first-touch map growth, and returns the op that the
// round-trip test pins and benchmark times: the next phone in turn enqueues
// a sensor reading and flushes, and the clock advances past the wire
// latency and the ack. delivered counts the collector's deliveries.
func roundTrip(tb testing.TB, n int) (op func(), delivered *int) {
	clk := vclock.NewSim()
	sw := NewSwitchboard(clk)
	collector := NewEndpoint(sw.Port("collector", nil), store.OpenMemory(), clk, EndpointConfig{BootID: "t"})
	delivered = new(int)
	collector.OnMessage(func(string, string, msg.Value) { *delivered++ })
	phones := make([]*Endpoint, n)
	for i := range phones {
		name := "d" + strconv.Itoa(i)
		sw.Associate(name, "collector")
		phones[i] = NewEndpoint(sw.Port(name, nil), store.OpenMemory(), clk, EndpointConfig{BootID: "t"})
	}
	payload := sensorReading()
	send := func(p *Endpoint) {
		if err := p.Enqueue("collector", "bench", payload); err != nil {
			tb.Fatal(err)
		}
		p.Flush()
	}
	for _, p := range phones {
		send(p)
	}
	clk.Advance(20 * time.Millisecond)
	next := 0
	return func() {
		send(phones[next%n])
		next++
		clk.Advance(20 * time.Millisecond)
	}, delivered
}

// sensorReading is what a phone's battery or wifi script publishes every few
// seconds.
func sensorReading() msg.Map {
	return msg.Map{
		"voltage": 4.1, "level": 0.93, "plugged": false, "timestamp": 1.7e12,
		"aps": []msg.Value{
			msg.Map{"bssid": "02:1b:77:49:54:fd", "rssi": -61.0},
			msg.Map{"bssid": "02:1b:77:1f:02:aa", "rssi": -74.0},
		},
	}
}
