package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"pogo/internal/android"
	"pogo/internal/energy"
	"pogo/internal/msg"
	"pogo/internal/pubsub"
	"pogo/internal/sched"
	"pogo/internal/script"
	"pogo/internal/store"
	"pogo/internal/transport"
	"pogo/internal/vclock"
	"pogo/internal/xmpp"
)

// Layer probes replay a workload's own message corpus through one layer's
// public API at a time, single-threaded where the layer allows, and report
// microseconds and allocations per message. They say what a layer costs on
// its own; the traced pass says what it costs in place.

// probeBudget is the minimum time one probe measures for in a benchmark run.
const probeBudget = 120 * time.Millisecond

// prober carries the per-probe time budget.
type prober struct{ budget time.Duration }

// timeOp runs op in batches until the budget has passed and returns the
// median batch's microseconds and allocations per call. op receives a
// running index.
func (p prober) timeOp(batch int, op func(i int)) (us, allocs float64) {
	var perUS, perAllocs []float64
	var ms runtime.MemStats
	i := 0
	for start := time.Now(); time.Since(start) < p.budget || len(perUS) < 3; {
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		t0 := time.Now()
		for k := 0; k < batch; k++ {
			op(i)
			i++
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&ms)
		perUS = append(perUS, float64(d.Nanoseconds())/1e3/float64(batch))
		perAllocs = append(perAllocs, float64(ms.Mallocs-m0)/float64(batch))
	}
	return quantile(perUS, 0.5), quantile(perAllocs, 0.5)
}

// stubHost is the script.Host of the handler probe: it captures the
// subscription's handler and whatever the script publishes, and does
// nothing else.
type stubHost struct {
	handlers  map[string]func(m msg.Value, origin string)
	published []msg.Map
	err       error
}

func (h *stubHost) Publish(_ string, m msg.Value) error {
	if mm, ok := m.(msg.Map); ok {
		h.published = append(h.published, mm)
	}
	return nil
}

func (h *stubHost) Subscribe(channel string, _ msg.Map, handler func(msg.Value, string)) (func(), func(), error) {
	h.handlers[channel] = handler
	return func() {}, func() {}, nil
}
func (h *stubHost) Print(string, string)             {}
func (h *stubHost) Log(string, string, string)       {}
func (h *stubHost) Freeze(string, msg.Value) error   { return nil }
func (h *stubHost) Thaw(string) (msg.Value, bool)    { return nil, false }
func (h *stubHost) SetTimeout(func(), time.Duration) {}
func (h *stubHost) ReportError(_ string, err error)  { h.err = err }
func startScript(name, src string) (*stubHost, error) {
	h := &stubHost{handlers: make(map[string]func(msg.Value, string))}
	s, err := script.New(name, src, h, script.Config{})
	if err != nil {
		return nil, err
	}
	return h, s.Start()
}

// loopback is a pair of in-harness messengers: Send queues a copy of the
// payload and pump delivers the queue on the caller's goroutine. Delivery
// waits for the sender's Flush to return, as a network would make it: an ack
// handed back inside Send would reach the endpoint before it has booked the
// transmission.
type loopback struct {
	id    string
	peer  *loopback
	recv  func(from string, payload []byte)
	inbox [][]byte
}

// pump delivers queued payloads in both directions until none are left.
func (l *loopback) pump() {
	for len(l.inbox) > 0 || len(l.peer.inbox) > 0 {
		for _, side := range []*loopback{l, l.peer} {
			queued := side.inbox
			side.inbox = nil
			for _, payload := range queued {
				side.recv(side.peer.id, payload)
			}
		}
	}
}

func (l *loopback) LocalID() string                   { return l.id }
func (l *loopback) Online() bool                      { return true }
func (l *loopback) OnReceive(fn func(string, []byte)) { l.recv = fn }
func (l *loopback) OnOnline(func())                   {}
func (l *loopback) OnPresence(func(string, bool))     {}
func (l *loopback) Peers() []string                   { return []string{l.peer.id} }
func (l *loopback) Send(to string, payload []byte) error {
	if to != l.peer.id || l.peer.recv == nil {
		return transport.ErrOffline
	}
	l.peer.inbox = append(l.peer.inbox, append([]byte(nil), payload...))
	return nil
}

// probeBacklog is the outbox depth a workload runs at, which is what
// Outbox.PendingInto pays for on every flush.
func (w *workload) probeBacklog() int {
	if w.mode == openLoop {
		return 2
	}
	return w.window
}

// run measures every layer probe for one workload. ref supplies the
// end-to-end figures the attribution is a share of.
func (p prober) run(wl *workload, seed int64, stateDir string, ref *passResult) (map[string]float64, error) {
	out := make(map[string]float64)
	corpus := wl.phoneCorpus(seed, 0)
	for i, m := range corpus {
		m[wl.seqKey] = float64(i)
	}

	// script: the phone script (if any) turns the corpus into the wire
	// corpus; the collector script logs it.
	wire := corpus
	var scriptUS, scriptAllocs float64
	if wl.phoneScript != "" {
		h, err := startScript(wl.phoneScript, wl.phoneScriptSource())
		if err != nil {
			return nil, err
		}
		handler := h.handlers[wl.channel]
		if handler == nil {
			return nil, fmt.Errorf("%s does not subscribe to %s", wl.phoneScript, wl.channel)
		}
		frozen := freezeAll(corpus)
		for _, m := range frozen {
			handler(m, "")
		}
		wire = h.published
		if len(wire) != len(corpus) {
			return nil, fmt.Errorf("%s published %d messages for %d inputs", wl.phoneScript, len(wire), len(corpus))
		}
		us, allocs := p.timeOp(len(frozen), func(i int) {
			h.published = h.published[:0]
			handler(frozen[i%len(frozen)], "")
		})
		scriptUS, scriptAllocs = us, allocs
	}
	frozenWire := freezeAll(wire)
	{
		h, err := startScript("sink.js", wl.collectorJS)
		if err != nil {
			return nil, err
		}
		handler := h.handlers[wl.wireChannel]
		if handler == nil {
			return nil, fmt.Errorf("collector script does not subscribe to %s", wl.wireChannel)
		}
		us, allocs := p.timeOp(len(frozenWire), func(i int) { handler(frozenWire[i%len(frozenWire)], phoneID(0)) })
		if h.err != nil {
			return nil, h.err
		}
		out["script.handler_us"] = scriptUS + us
		out["script.handler_allocs"] = scriptAllocs + allocs
	}

	// msg: the body codec on the wire corpus.
	bodies := make([][]byte, len(wire))
	var bodyBytes int
	for i, m := range wire {
		b, err := msg.EncodeBinary(m)
		if err != nil {
			return nil, err
		}
		bodies[i] = b
		bodyBytes += len(b)
	}
	out["msg.body_bytes"] = float64(bodyBytes) / float64(len(bodies))
	var scratch []byte
	out["msg.encode_us"], _ = p.timeOp(len(wire), func(i int) {
		scratch, _ = msg.AppendBinary(scratch[:0], wire[i%len(wire)])
	})
	out["msg.decode_us"], out["msg.decode_allocs"] = p.timeOp(len(bodies), func(i int) {
		msg.DecodeFrozen(bodies[i%len(bodies)])
	})

	// pubsub: one publish to one subscriber.
	{
		b := pubsub.New()
		b.Subscribe(wl.wireChannel, nil, func(pubsub.Event) {})
		out["pubsub.publish_us"], _ = p.timeOp(len(wire), func(i int) { b.Publish(wl.wireChannel, wire[i%len(wire)]) })
	}

	if err := p.store(wl, stateDir, bodies, out); err != nil {
		return nil, err
	}
	p.transport(wl, wire, out)
	if err := p.xmpp(int(out["msg.body_bytes"])+64, out); err != nil {
		return nil, err
	}
	p.sched(out)

	// Attribution: what the probes account for, as a share of the process
	// CPU a delivered message costs end to end. Per message: one reliable
	// round trip (body codec, envelope, memory outbox), the file outbox's
	// extra cost, a broker publish on each side, the script handlers, two
	// scheduler hops (flush, script dispatch), and its share of the data and
	// ack stanzas.
	stanzas := 2.0
	if ref.msgsPerFl > 1 {
		stanzas /= ref.msgsPerFl
	}
	attributed := out["transport.roundtrip_us"] + out["store.add_ack_us"] + 2*out["pubsub.publish_us"] +
		out["script.handler_us"] + 2*out["sched.hop_us"] + stanzas*1e6/out["xmpp.stanzas_per_s"]
	out["harness.unattributed_pct"] = 100 * (1 - attributed/ref.cpuUS)
	return out, nil
}

func freezeAll(ms []msg.Map) []msg.Map {
	out := make([]msg.Map, len(ms))
	for i, m := range ms {
		out[i] = msg.Freeze(m)
	}
	return out
}

// store measures the file-backed outbox at the workload's backlog.
func (p prober) store(wl *workload, stateDir string, bodies [][]byte, out map[string]float64) error {
	dir, err := os.MkdirTemp(stateDir, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	now := time.Now()
	backlog := wl.probeBacklog()
	body := func(i int) []byte { return bodies[i%len(bodies)] }

	// Bytes appended per message: a fresh log, too few records to compact.
	{
		path := filepath.Join(dir, "bytes.outbox")
		box, err := store.Open(path)
		if err != nil {
			return err
		}
		const n = 32
		for i := 0; i < n; i++ {
			id, err := box.Add(collectorID, wl.wireChannel, uint64(i), body(i), now)
			if err != nil {
				return err
			}
			if err := box.Ack(id); err != nil {
				return err
			}
		}
		if err := box.Close(); err != nil {
			return err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		out["store.disk_bytes_per_msg"] = float64(fi.Size()) / n
	}

	// Add + Ack at the workload's backlog, compaction included. A stream
	// acknowledges as it goes; batch_drain acknowledges a round at a time.
	box, err := store.Open(filepath.Join(dir, "steady.outbox"))
	if err != nil {
		return err
	}
	defer box.Close()
	var ids []uint64
	var opErr error
	add := func(i int) {
		id, err := box.Add(collectorID, wl.wireChannel, uint64(i), body(i), now)
		if err != nil {
			opErr = err
		}
		ids = append(ids, id)
	}
	if wl.mode == batchLoop {
		us, _ := p.timeOp(1, func(i int) {
			for k := 0; k < backlog; k++ {
				add(i*backlog + k)
			}
			if err := box.Ack(ids...); err != nil {
				opErr = err
			}
			ids = ids[:0]
		})
		out["store.add_ack_us"] = us / float64(backlog)
		for k := 0; k < backlog; k++ {
			add(k)
		}
	} else {
		for k := 0; k < backlog; k++ {
			add(k)
		}
		out["store.add_ack_us"], _ = p.timeOp(256, func(i int) {
			add(backlog + i)
			if err := box.Ack(ids[0]); err != nil {
				opErr = err
			}
			ids = ids[1:]
		})
	}
	if opErr != nil {
		return opErr
	}
	var pend []store.Entry
	out["store.pending_us"], _ = p.timeOp(64, func(int) { pend = box.PendingInto(pend) })

	// Recovery: reopening a log of 10 000 live entries.
	{
		path := filepath.Join(dir, "replay.outbox")
		big, err := store.Open(path)
		if err != nil {
			return err
		}
		for i := 0; i < 10000; i++ {
			if _, err := big.Add(collectorID, wl.wireChannel, uint64(i), body(i), now); err != nil {
				return err
			}
		}
		if err := big.Close(); err != nil {
			return err
		}
		var replays []float64
		for k := 0; k < 3; k++ {
			t0 := time.Now()
			re, err := store.Open(path)
			if err != nil {
				return err
			}
			replays = append(replays, float64(time.Since(t0).Nanoseconds())/1e6)
			if re.Len() != 10000 {
				return fmt.Errorf("store replay recovered %d of 10000 entries", re.Len())
			}
			re.Close()
		}
		out["store.replay_ms_per_10k"] = quantile(replays, 0.5)
	}
	return nil
}

// transport measures one reliable round trip — enqueue, flush,
// receive, ack, outbox removal — between two endpoints over the loopback
// messenger with memory outboxes.
func (p prober) transport(wl *workload, wire []msg.Map, out map[string]float64) {
	a, b := &loopback{id: phoneID(0)}, &loopback{id: collectorID}
	a.peer, b.peer = b, a
	clk := vclock.Real{}
	epA := transport.NewEndpoint(a, store.OpenMemory(), clk, transport.EndpointConfig{})
	epB := transport.NewEndpoint(b, store.OpenMemory(), clk, transport.EndpointConfig{})
	epB.OnMessage(func(string, string, msg.Value) {})
	out["transport.roundtrip_us"], out["transport.roundtrip_allocs"] = p.timeOp(len(wire), func(i int) {
		epA.Enqueue(collectorID, wl.wireChannel, wire[i%len(wire)]) // cannot fail: corpus messages encode
		epA.Flush()
		a.pump()
	})
}

// xmpp measures the switchboard on its own: two raw clients exchanging
// payloads the size of the workload's envelopes.
func (p prober) xmpp(payloadBytes int, out map[string]float64) error {
	srv := xmpp.NewServer(xmpp.ServerConfig{AllowAutoRegister: true})
	srv.Associate("a", "b")
	if err := srv.Start(); err != nil {
		return err
	}
	defer srv.Close()

	var dials []float64
	for k := 0; k < 9; k++ {
		t0 := time.Now()
		c, err := xmpp.Dial(srv.Addr(), "dialer", "pw", "probe")
		if err != nil {
			return err
		}
		dials = append(dials, float64(time.Since(t0).Nanoseconds())/1e6)
		c.Close()
	}
	out["xmpp.connect_ms"] = quantile(dials, 0.5)

	ca, err := xmpp.Dial(srv.Addr(), "a", "pw", "probe")
	if err != nil {
		return err
	}
	defer ca.Close()
	cb, err := xmpp.Dial(srv.Addr(), "b", "pw", "probe")
	if err != nil {
		return err
	}
	defer cb.Close()
	payload := make([]byte, payloadBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	toA, toB := xmpp.MakeJID("a"), xmpp.MakeJID("b")

	// arrived signals each stanza b receives; echo additionally bounces it
	// back to a, whose receipt is what the window-1 probe waits for.
	const window = 64
	arrived := make(chan struct{}, window)
	back := make(chan struct{}, 1)
	var echo atomic.Bool
	echo.Store(true)
	cb.OnMessageRaw(func(_ xmpp.JID, id string, body []byte) {
		if echo.Load() {
			cb.SendMessageBytes(toA, id, body, "")
			return
		}
		arrived <- struct{}{}
	})
	ca.OnMessageRaw(func(xmpp.JID, string, []byte) { back <- struct{}{} })
	timeout := errors.New("xmpp probe: stanza not delivered within 5 s")
	var probeErr error
	wait := func(ch chan struct{}) {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			probeErr = timeout
		}
	}
	out["xmpp.roundtrip_us"], _ = p.timeOp(64, func(int) {
		if probeErr == nil {
			ca.SendMessageBytes(toB, "p", payload, "")
			wait(back)
		}
	})
	if probeErr != nil {
		return probeErr
	}

	echo.Store(false)
	inFlight := 0
	us, _ := p.timeOp(1024, func(int) {
		if probeErr != nil {
			return
		}
		if inFlight == window {
			wait(arrived)
			inFlight--
		}
		ca.SendMessageBytes(toB, "p", payload, "")
		inFlight++
	})
	for ; inFlight > 0 && probeErr == nil; inFlight-- {
		wait(arrived)
	}
	if probeErr != nil {
		return probeErr
	}
	out["xmpp.stanzas_per_s"] = 1e6 / us
	return nil
}

// sched measures Submit → task start on the real clock, one task at a
// time, without and with a simulated phone attached (wake lock + alarm).
func (p prober) sched(out map[string]float64) {
	clk := vclock.Real{}
	hop := func(s *sched.Scheduler) float64 {
		defer s.Close()
		ran := make(chan time.Time, 1)
		var hops []float64
		for start := time.Now(); time.Since(start) < p.budget; {
			t0 := time.Now()
			s.Submit("probe", func() { ran <- time.Now() })
			hops = append(hops, float64((<-ran).Sub(t0).Nanoseconds())/1e3)
		}
		return quantile(hops, 0.5)
	}
	out["sched.hop_us"] = hop(sched.New(clk, nil))
	out["sched.hop_device_us"] = hop(sched.New(clk, android.NewDevice(clk, energy.NewMeter(clk), android.Config{})))
}
