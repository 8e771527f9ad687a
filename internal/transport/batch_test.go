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
	valid := frameInto(appendEnvelope(append([]byte(nil), frameHeader[:]...), "evil", "",
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

// TestRoundTripSteadyStateAllocs is the pool-churn regression guard: after
// warm-up, one enqueue→flush→deliver→ack round trip must stay within the
// hot-path allocation budget. A leaked pooled buffer (error path dropping a
// wire buffer, decode scratch not returned) shows up here as steady-state
// allocations creeping up.
func TestRoundTripSteadyStateAllocs(t *testing.T) {
	clk := vclock.NewSim()
	sw := NewSwitchboard(clk)
	sw.Associate("phone", "collector")
	phone := NewEndpoint(sw.Port("phone", nil), store.OpenMemory(), clk, EndpointConfig{BootID: "t"})
	collector := NewEndpoint(sw.Port("collector", nil), store.OpenMemory(), clk, EndpointConfig{BootID: "t"})
	delivered := 0
	collector.OnMessage(func(string, string, msg.Value) { delivered++ })
	payload := msg.Map{
		"voltage": 4.1, "level": 0.93, "plugged": false, "timestamp": 1.7e12,
		"aps": []msg.Value{
			msg.Map{"bssid": "02:1b:77:49:54:fd", "rssi": -61.0},
			msg.Map{"bssid": "02:1b:77:1f:02:aa", "rssi": -74.0},
		},
	}
	roundtrip := func() {
		if err := phone.Enqueue("collector", "bench", payload); err != nil {
			t.Fatal(err)
		}
		phone.Flush()
		clk.Advance(20 * time.Millisecond)
	}
	for i := 0; i < 100; i++ { // warm pools, interning, frozen-body cache
		roundtrip()
	}
	allocs := testing.AllocsPerRun(200, roundtrip)
	// The tentpole budget is 20 allocs/op (measured ~9); leave headroom for
	// runtime jitter but catch any pool-churn regression well before the
	// bench gate does.
	if allocs > 20 {
		t.Errorf("steady-state round trip = %.1f allocs, budget 20", allocs)
	}
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
}

// TestEncodeErrorPathsKeepPoolsPrimed: an encode failure must not clobber or
// leak the pooled buffer it borrowed. If the error path dropped buffers, the
// interleaved good encodes would re-allocate a fresh buffer on every
// iteration and the allocation count would scale with the buffer size.
func TestEncodeErrorPathsKeepPoolsPrimed(t *testing.T) {
	bad := msg.Map{"x": make(chan int)} // unencodable: not a msg.Value kind
	good := msg.Map{"n": 1.0, "s": "steady"}
	if _, err := msg.EncodeBinary(bad); err == nil {
		t.Skip("channel value unexpectedly encodable")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := msg.EncodeBinary(bad); err == nil {
			t.Fatal("bad value encoded")
		}
		if _, err := msg.EncodeBinary(good); err != nil {
			t.Fatal(err)
		}
	})
	// EncodeBinary copies its result out (1 alloc) plus the error's
	// formatting; a leaked 1 KiB pool buffer per iteration would push this
	// far past the budget.
	if allocs > 8 {
		t.Errorf("error-path churn = %.1f allocs/op — pooled buffers leaking", allocs)
	}
}
