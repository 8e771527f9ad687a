package transport

import (
	"math"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"pogo/internal/android"
	"pogo/internal/energy"
	"pogo/internal/faultnet"
	"pogo/internal/msg"
	"pogo/internal/radio"
	"pogo/internal/store"
	"pogo/internal/vclock"
)

// simNode bundles one simulated phone's network stack.
type simNode struct {
	id    string
	meter *energy.Meter
	dev   *android.Device
	modem *radio.Modem
	conn  *radio.Connectivity
	port  *Port
	ep    *Endpoint
}

func newSimNode(t *testing.T, clk *vclock.Sim, sb *Switchboard, id string) *simNode {
	t.Helper()
	meter := energy.NewMeter(clk)
	dev := android.NewDevice(clk, meter, android.Config{})
	modem := radio.NewModem(clk, meter, radio.KPN)
	conn := radio.NewConnectivity(modem, nil)
	port := sb.Port(id, conn)
	ep := NewEndpoint(port, store.OpenMemory(), clk, EndpointConfig{MaxAge: store.DefaultMaxAge})
	return &simNode{id: id, meter: meter, dev: dev, modem: modem, conn: conn, port: port, ep: ep}
}

func newWiredNode(t *testing.T, clk *vclock.Sim, sb *Switchboard, id string) *Endpoint {
	t.Helper()
	port := sb.Port(id, nil)
	return NewEndpoint(port, store.OpenMemory(), clk, EndpointConfig{})
}

type received struct {
	from, channel string
	payload       msg.Value
}

func collect(ep *Endpoint) *[]received {
	var got []received
	ep.OnMessage(func(from, channel string, payload msg.Value) {
		got = append(got, received{from, channel, payload})
	})
	return &got
}

func TestEndToEndDelivery(t *testing.T) {
	clk := vclock.NewSim()
	sb := NewSwitchboard(clk)
	sb.Associate("dev1", "col")
	dev := newSimNode(t, clk, sb, "dev1")
	col := newWiredNode(t, clk, sb, "col")
	got := collect(col)

	dev.ep.Enqueue("col", "clusters", msg.Map{"place": "home", "n": 42.0})
	if dev.ep.Pending() != 1 {
		t.Fatalf("Pending = %d", dev.ep.Pending())
	}
	dev.ep.Flush()
	clk.Advance(time.Minute)

	if len(*got) != 1 {
		t.Fatalf("received %d messages", len(*got))
	}
	r := (*got)[0]
	if r.from != "dev1" || r.channel != "clusters" {
		t.Errorf("got %+v", r)
	}
	if !msg.Equal(r.payload, msg.Map{"place": "home", "n": 42.0}) {
		t.Errorf("payload = %v", r.payload)
	}
	// Ack must clear the outbox.
	if dev.ep.Pending() != 0 {
		t.Errorf("Pending = %d after ack", dev.ep.Pending())
	}
	st := dev.ep.Stats()
	if st.MessagesAcked != 1 || st.MessagesSent != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBatchingOneEnvelopePerDest(t *testing.T) {
	clk := vclock.NewSim()
	sb := NewSwitchboard(clk)
	sb.Associate("dev1", "col")
	dev := newSimNode(t, clk, sb, "dev1")
	col := newWiredNode(t, clk, sb, "col")
	got := collect(col)

	for i := 0; i < 5; i++ {
		dev.ep.Enqueue("col", "battery", msg.Map{"i": float64(i)})
	}
	sent := dev.ep.Flush()
	if sent != 5 {
		t.Fatalf("Flush sent %d", sent)
	}
	clk.Advance(time.Minute)
	if len(*got) != 5 {
		t.Fatalf("received %d", len(*got))
	}
	// A single modem transfer carried all five (plus tail): one ramp-up.
	if st := dev.modem.Stats(); st.TxBytes == 0 {
		t.Error("no uplink bytes recorded")
	}
}

func TestOfflineBufferingAndReconnectFlush(t *testing.T) {
	clk := vclock.NewSim()
	sb := NewSwitchboard(clk)
	sb.Associate("dev1", "col")
	dev := newSimNode(t, clk, sb, "dev1")
	col := newWiredNode(t, clk, sb, "col")
	got := collect(col)

	// Connectivity-driven flush, as core wires it.
	dev.port.OnOnline(func() { dev.ep.Flush() })

	dev.conn.SetActive(radio.InterfaceNone)
	dev.ep.Enqueue("col", "clusters", msg.Map{"x": 1.0})
	if n := dev.ep.Flush(); n != 0 {
		t.Fatalf("Flush while offline sent %d", n)
	}
	clk.Advance(time.Hour)
	if len(*got) != 0 {
		t.Fatal("message delivered while offline")
	}
	dev.conn.SetActive(radio.InterfaceCellular) // triggers OnOnline → Flush
	clk.Advance(time.Minute)
	if len(*got) != 1 {
		t.Fatalf("received %d after reconnect", len(*got))
	}
}

func TestMaxAgePurge(t *testing.T) {
	clk := vclock.NewSim()
	sb := NewSwitchboard(clk)
	sb.Associate("dev1", "col")
	dev := newSimNode(t, clk, sb, "dev1")
	newWiredNode(t, clk, sb, "col")

	dev.conn.SetActive(radio.InterfaceNone) // roaming, data off
	dev.ep.Enqueue("col", "clusters", msg.Map{"old": true})
	clk.Advance(25 * time.Hour)
	dev.ep.Enqueue("col", "clusters", msg.Map{"old": false})
	dev.ep.Flush() // purge happens even though offline
	if dev.ep.Pending() != 1 {
		t.Errorf("Pending = %d, want 1 (old one purged)", dev.ep.Pending())
	}
	if st := dev.ep.Stats(); st.MessagesExpired != 1 {
		t.Errorf("MessagesExpired = %d", st.MessagesExpired)
	}
}

func TestRetransmitUntilAcked(t *testing.T) {
	clk := vclock.NewSim()
	sb := NewSwitchboard(clk)
	dev := newSimNode(t, clk, sb, "dev1")
	col := newWiredNode(t, clk, sb, "col")
	got := collect(col)

	// Not associated yet: the switchboard refuses the first send.
	dev.ep.Enqueue("col", "clusters", msg.Map{"x": 1.0})
	dev.ep.Flush()
	clk.Advance(10 * time.Second) // transfer completes, delivery refused
	if dev.ep.Pending() != 1 || len(*got) != 0 {
		t.Fatalf("pending=%d delivered=%d, want the entry kept and undelivered", dev.ep.Pending(), len(*got))
	}

	// Within RetryAfter (30 s default) the entry is not re-sent.
	if n := dev.ep.Flush(); n != 0 {
		t.Errorf("retransmitted %d before RetryAfter", n)
	}
	// Once RetryAfter elapses the endpoint retransmits on its own — the
	// self-driven retry timer, not a flush-policy tick, delivers the entry.
	sb.Associate("dev1", "col")
	clk.Advance(2 * time.Minute)
	if len(*got) != 1 || dev.ep.Pending() != 0 {
		t.Errorf("got=%d pending=%d", len(*got), dev.ep.Pending())
	}
	if st := dev.ep.Stats(); st.Retries != 1 {
		t.Errorf("Retries = %d, want 1", st.Retries)
	}
}

func TestReceiverDeduplicates(t *testing.T) {
	clk := vclock.NewSim()
	net, fa, fb := faultPair(clk, faultnet.Config{Seed: 1})
	dev := NewEndpoint(fa, store.OpenMemory(), clk, EndpointConfig{RetryAfter: 2 * time.Second})
	col := NewEndpoint(fb, store.OpenMemory(), clk, EndpointConfig{})
	got := collect(col)

	// The ack dies on its way back, so the sender's backoff runs out and it
	// retransmits an entry the receiver already has.
	net.Partition("b", "a")
	dev.Enqueue("b", "ch", msg.Map{"v": 1.0})
	dev.Flush()
	clk.Advance(3 * time.Second) // first copy, then the retransmission at 2 s
	if st := col.Stats(); len(*got) != 1 || st.Duplicates != 1 {
		t.Fatalf("before heal: delivered %d, Duplicates = %d; want 1 and 1", len(*got), st.Duplicates)
	}
	if dev.Pending() != 1 {
		t.Fatalf("Pending = %d with every ack dropped", dev.Pending())
	}
	net.Heal("b", "a")
	clk.Advance(time.Minute) // the next retransmission's ack gets through
	if len(*got) != 1 {
		t.Fatalf("delivered %d, want 1 after dedup", len(*got))
	}
	if dup, retries := col.Stats().Duplicates, dev.Stats().Retries; dup != 2 || retries != 2 {
		t.Errorf("Duplicates = %d, Retries = %d; want one duplicate per retransmission (2)", dup, retries)
	}
	if dev.Pending() != 0 {
		t.Errorf("Pending = %d after the ack", dev.Pending())
	}

	// The per-channel cursor is the whole dedup state, so it never forgets:
	// 10 000 in-order deliveries later, a retransmission of the oldest
	// message and of a recent one are both refused.
	const total = 10000
	for n := 2; n <= total; n++ {
		dev.Enqueue("b", "ch", msg.Map{"v": float64(n)})
		if n%100 == 0 {
			dev.Flush()
			clk.Advance(time.Second)
		}
	}
	if len(*got) != total || dev.Pending() != 0 {
		t.Fatalf("in-order run: delivered %d of %d, Pending = %d", len(*got), total, dev.Pending())
	}
	body, err := msg.AppendBinary(nil, msg.Map{"v": 0.0})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []uint64{1, total - 1} {
		col.receive("a", frameInto(appendEnvelope(append([]byte(nil), frameHeader[:]...), new(chanTable), "a", dev.core.boot,
			[]envelopeItem{{ID: n, Seq: n - 1, Channel: "ch", Body: body}}, nil, nil, nil)))
	}
	if dup := col.Stats().Duplicates; len(*got) != total || dup != 4 {
		t.Errorf("after retransmitting messages 1 and %d: delivered %d (want %d), Duplicates = %d (want 2 more, 4)",
			total-1, len(*got), total, dup)
	}
}

func TestTransportCostsEnergyAndMovesCounters(t *testing.T) {
	clk := vclock.NewSim()
	sb := NewSwitchboard(clk)
	sb.Associate("dev1", "col")
	dev := newSimNode(t, clk, sb, "dev1")
	newWiredNode(t, clk, sb, "col")

	clk.Advance(10 * time.Second)
	e0 := dev.meter.Energy()
	tx0 := dev.modem.Stats().TxBytes
	dev.ep.Enqueue("col", "ch", msg.Map{"v": 1.0})
	dev.ep.Flush()
	clk.Advance(5 * time.Minute)
	if dev.meter.Energy()-e0 < 1 {
		t.Errorf("energy delta = %v J; a 3G tail costs joules", dev.meter.Energy()-e0)
	}
	if dev.modem.Stats().TxBytes == tx0 {
		t.Error("tx counters did not move")
	}
	// The collector's ack arrives as downlink bytes.
	if dev.modem.Stats().RxBytes == 0 {
		t.Error("ack did not traverse the device downlink")
	}
}

func TestPresenceOnPortAndConnectivity(t *testing.T) {
	clk := vclock.NewSim()
	sb := NewSwitchboard(clk)
	sb.Associate("dev1", "col")
	colPort := sb.Port("col", nil)
	var events []string
	colPort.OnPresence(func(peer string, online bool) {
		if online {
			events = append(events, peer+"+")
		} else {
			events = append(events, peer+"-")
		}
	})
	dev := newSimNode(t, clk, sb, "dev1")
	dev.conn.SetActive(radio.InterfaceNone)
	dev.conn.SetActive(radio.InterfaceCellular)
	dev.port.Close()
	dev.port.Close() // idempotent
	want := []string{"dev1+", "dev1-", "dev1+", "dev1-"}
	if len(events) != len(want) {
		t.Fatalf("events = %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Errorf("event %d = %q, want %q", i, events[i], want[i])
		}
	}
}

func TestAssociateAfterPortsOnline(t *testing.T) {
	clk := vclock.NewSim()
	sb := NewSwitchboard(clk)
	a := sb.Port("a", nil)
	sb.Port("b", nil)
	var sawB bool
	a.OnPresence(func(peer string, online bool) {
		if peer == "b" && online {
			sawB = true
		}
	})
	sb.Associate("a", "b")
	if !sawB {
		t.Error("late association did not announce presence")
	}
	if peers := a.Peers(); len(peers) != 1 || peers[0] != "b" {
		t.Errorf("Peers = %v", peers)
	}
}

func TestUnassociatedSendDropped(t *testing.T) {
	clk := vclock.NewSim()
	sb := NewSwitchboard(clk)
	a := sb.Port("a", nil)
	b := sb.Port("b", nil)
	var got int
	b.OnReceive(func(string, []byte) { got++ })
	a.Send("b", []byte(`{"from":"a"}`))
	clk.Advance(time.Second)
	// Associating later must not release it: a refused payload is not queued.
	sb.Associate("a", "b")
	clk.Advance(time.Second)
	if got != 0 {
		t.Error("unassociated delivery happened")
	}
}

func TestEnqueueRejectsUnsupportedPayload(t *testing.T) {
	clk := vclock.NewSim()
	sb := NewSwitchboard(clk)
	ep := newWiredNode(t, clk, sb, "x")
	if err := ep.Enqueue("y", "ch", make(chan int)); err == nil {
		t.Error("unsupported payload accepted")
	}
}

func TestCorruptPayloadIgnored(t *testing.T) {
	clk := vclock.NewSim()
	sb := NewSwitchboard(clk)
	sb.Associate("a", "b")
	a := sb.Port("a", nil)
	bEp := newWiredNode(t, clk, sb, "b")
	got := collect(bEp)
	a.Send("b", []byte("not json"))
	clk.Advance(time.Second)
	if len(*got) != 0 {
		t.Error("corrupt envelope delivered")
	}
}

func TestWiredLatency(t *testing.T) {
	clk := vclock.NewSim()
	sb := NewSwitchboard(clk)
	sb.Associate("a", "b")
	aEp := newWiredNode(t, clk, sb, "a")
	bEp := newWiredNode(t, clk, sb, "b")
	got := collect(bEp)
	aEp.Enqueue("b", "ch", msg.Map{"v": 1.0})
	aEp.Flush()
	if len(*got) != 0 {
		t.Error("delivered synchronously; want wire latency")
	}
	clk.Advance(10 * time.Millisecond)
	if len(*got) != 1 {
		t.Errorf("delivered %d after latency", len(*got))
	}
}

// TestNonCanonicalBodyDropped: a body no encoder writes (here, map keys out of
// order) is acknowledged but not delivered, and counted as corrupt; the
// channel's order moves past it, so the message behind it arrives.
func TestNonCanonicalBodyDropped(t *testing.T) {
	clk := vclock.NewSim()
	sb := NewSwitchboard(clk)
	sb.Associate("dev", "col")
	col := newWiredNode(t, clk, sb, "col")
	got := collect(col)
	good, _ := msg.EncodeBinary(msg.Map{"n": 1.0})
	env := &envelope{From: "dev", Boot: []byte("b"), Batch: []envelopeItem{
		{ID: 1, Seq: 0, Channel: "ch", Body: []byte{0x07, 2, 1, 'b', 0x00, 1, 'a', 0x00}},
		{ID: 2, Seq: 1, Channel: "ch", Body: good},
	}}
	col.receive("dev", frameInto(append(frameHeader[:], encodeEnvelope(env)...)))
	if len(*got) != 1 || !msg.Equal((*got)[0].payload, msg.Map{"n": 1.0}) {
		t.Fatalf("delivered %v, want only the good message", *got)
	}
	if st := col.Stats(); st.CorruptDropped != 1 || st.MessagesReceived != 2 {
		t.Errorf("stats %+v, want 1 corrupt of 2 received", st)
	}
}

// TestForgedSenderDropped: the switchboard stamps every stanza with the
// sender it authenticated, and that is who an envelope is from. Phone a
// claims to be b, under a boot of its own: the collector must neither
// deliver a's message as b's nor let the forged boot reset b's FIFO state.
func TestForgedSenderDropped(t *testing.T) {
	clk := vclock.NewSim()
	sb := NewSwitchboard(clk)
	sb.Associate("a", "col")
	sb.Associate("b", "col")
	a := sb.Port("a", nil)
	b := NewEndpoint(sb.Port("b", nil), store.OpenMemory(), clk, EndpointConfig{BootID: "b1"})
	col := newWiredNode(t, clk, sb, "col")
	got := collect(col)
	send := func(n float64) {
		b.Enqueue("col", "ch", msg.Map{"n": n})
		b.Flush()
		clk.Advance(time.Second)
	}
	send(0)
	send(1)
	body, err := msg.EncodeBinary(msg.Map{"n": 99.0})
	if err != nil {
		t.Fatal(err)
	}
	forged := frameInto(appendEnvelope(append([]byte(nil), frameHeader[:]...), new(chanTable), "b", "forged",
		[]envelopeItem{{ID: 1, Seq: 0, Channel: "ch", Body: body}}, nil, []string{"ch"}, []uint64{0}))
	a.Send("col", forged)
	clk.Advance(time.Second)
	send(2)
	var ns []float64
	for _, r := range *got {
		n, _ := msg.GetNumber(r.payload.(msg.Raw), "n")
		if r.from != "b" {
			t.Errorf("delivered n=%v from %q", n, r.from)
		}
		ns = append(ns, n)
	}
	if !reflect.DeepEqual(ns, []float64{0, 1, 2}) {
		t.Errorf("delivered %v from b, want [0 1 2]", ns)
	}
	if st := col.Stats(); st.CorruptDropped != 1 || st.Duplicates != 0 {
		t.Errorf("CorruptDropped = %d, Duplicates = %d; want the forgery dropped as corrupt (1) and no duplicate",
			st.CorruptDropped, st.Duplicates)
	}
}

// TestAckFromAnotherPeerIgnored: an ack settles an entry only when it comes
// from the peer the entry is addressed to. Collector c1 acking ID 1, which
// waits for c2, must leave it buffered, and c2 must still get it.
func TestAckFromAnotherPeerIgnored(t *testing.T) {
	clk := vclock.NewSim()
	sb := NewSwitchboard(clk)
	sb.Associate("phone", "c1")
	sb.Associate("phone", "c2")
	phone := newWiredNode(t, clk, sb, "phone")
	c1 := sb.Port("c1", nil)
	if err := phone.Enqueue("c2", "ch", msg.Map{"n": 1.0}); err != nil {
		t.Fatal(err)
	}
	ack := frameInto(appendEnvelope(append([]byte(nil), frameHeader[:]...), new(chanTable), "c1", "c1-boot", nil, []uint64{1}, nil, nil))
	c1.Send("phone", ack)
	clk.Advance(time.Second)
	if n := phone.Pending(); n != 1 {
		t.Fatalf("Pending = %d after c1 acked c2's message, want 1", n)
	}
	c2 := newWiredNode(t, clk, sb, "c2")
	got := collect(c2)
	phone.Flush()
	clk.Advance(time.Second)
	if len(*got) != 1 || phone.Pending() != 0 {
		t.Errorf("c2 got %d messages, phone Pending = %d; want 1 and 0", len(*got), phone.Pending())
	}
	if st := phone.Stats(); st.MessagesAcked != 1 {
		t.Errorf("MessagesAcked = %d, want c2's ack alone (1)", st.MessagesAcked)
	}
}

// TestNewEndpointFootprint pins what constructing an endpoint costs — the
// endpoint itself, its timer callback and its two messenger registrations —
// since fleet experiments hold a hundred thousand of them.
// TestOverlappingReceivesDeliverOnce: receives that run at once on one
// endpoint each get a scratch of their own — one takes the endpoint's, the
// others make theirs — and every message is delivered once, whichever
// receive carried it first. The scratch the endpoint keeps holds no view of
// a payload: item bodies, boot ID and messages go when a receive returns.
func TestOverlappingReceivesDeliverOnce(t *testing.T) {
	var payloads [][]byte
	phone := NewEndpoint(&ackPort{id: "phone", onSend: func(p []byte) {
		payloads = append(payloads, append([]byte(nil), p...))
	}}, store.OpenMemory(), idleClock{}, EndpointConfig{RetryAfter: time.Hour})
	const channels = 8
	for i := 0; i < channels; i++ { // one channel each, so no envelope waits for another
		phone.Enqueue("collector", "c"+strconv.Itoa(i), sensorReading())
		phone.Flush()
	}
	port := &ackPort{id: "collector"}
	col := NewEndpoint(port, store.OpenMemory(), idleClock{}, EndpointConfig{})
	var mu sync.Mutex
	got := map[string]int{}
	col.OnMessage(func(_, channel string, _ msg.Value) {
		mu.Lock()
		got[channel]++
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range payloads {
				port.recv("phone", payloads[(i+g)%len(payloads)])
			}
		}()
	}
	wg.Wait()
	if len(got) != channels {
		t.Errorf("delivered on %d of %d channels", len(got), channels)
	}
	for ch, n := range got {
		if n != 1 {
			t.Errorf("channel %s delivered %d times", ch, n)
		}
	}
	sc := col.rsc.Load()
	if sc == nil {
		t.Fatal("no receive scratch after a receive")
	}
	kept := sc.env.Boot != nil || sc.env.Batch != nil
	for _, it := range append(sc.batch[:cap(sc.batch)], sc.deliver[:cap(sc.deliver)]...) {
		kept = kept || it.Body != nil
	}
	for _, r := range sc.msgs[:cap(sc.msgs)] {
		kept = kept || !r.IsZero()
	}
	if kept {
		t.Error("the endpoint's receive scratch keeps a view of a payload")
	}
}

// TestNewEndpointFootprint bounds what building an endpoint allocates. The
// counts are process-wide, so a stray allocation by another goroutine lands
// in them too: the test measures three batches and keeps the least.
func TestNewEndpointFootprint(t *testing.T) {
	const n = 1000
	clk := vclock.NewSim()
	sb := NewSwitchboard(clk)
	allocs, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for round := 0; round < 3; round++ {
		ports := make([]*Port, n)
		boxes := make([]*store.Outbox, n)
		eps := make([]*Endpoint, n)
		for i := range ports {
			ports[i] = sb.Port("p"+strconv.Itoa(round)+"-"+strconv.Itoa(i), nil)
			boxes[i] = store.OpenMemory()
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := range eps {
			eps[i] = NewEndpoint(ports[i], boxes[i], clk, EndpointConfig{BootID: "b"})
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(eps)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	if allocs > 5*n || bytes > 696*n {
		t.Errorf("%d endpoints: %d allocs, %d B; want ≤ %d and ≤ %d", n, allocs, bytes, 5*n, 696*n)
	}
}
