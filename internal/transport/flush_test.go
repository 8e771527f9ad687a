package transport

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"pogo/internal/msg"
	"pogo/internal/store"
	"pogo/internal/vclock"
)

// loopPort is an in-process Messenger whose deliveries run on the peer's own
// goroutine, like a socket's reader: Send copies the payload onto a queue
// and returns, so a sender's acks arrive concurrently with its flushes.
type loopPort struct {
	id   string
	peer *loopPort
	in   chan loopMsg
	recv func(from string, payload []byte)
	done sync.WaitGroup
}

type loopMsg struct {
	from    string
	payload []byte
}

// loopQueue is deeper than any backlog the tests build (they hold back at 256
// unacked), so Send never blocks and neither side can wait on the other.
const loopQueue = 4096

func newLoopPair(a, b string) (*loopPort, *loopPort) {
	pa := &loopPort{id: a, in: make(chan loopMsg, loopQueue)}
	pb := &loopPort{id: b, in: make(chan loopMsg, loopQueue)}
	pa.peer, pb.peer = pb, pa
	return pa, pb
}

// start begins delivering; call it once the endpoint has registered.
func (p *loopPort) start() {
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		for m := range p.in {
			p.recv(m.from, m.payload)
		}
	}()
}

func (p *loopPort) stop() {
	close(p.in)
	p.done.Wait()
}

func (p *loopPort) LocalID() string { return p.id }
func (p *loopPort) Online() bool    { return true }
func (p *loopPort) Send(to string, payload []byte) error {
	p.peer.in <- loopMsg{from: p.id, payload: append([]byte(nil), payload...)}
	return nil
}
func (p *loopPort) OnReceive(fn func(from string, payload []byte)) { p.recv = fn }
func (p *loopPort) OnOnline(func())                                {}
func (p *loopPort) OnPresence(func(peer string, online bool))      {}
func (p *loopPort) Peers() []string                                { return []string{p.peer.id} }

// TestNoDuplicateSendUnderConcurrentAcks: one goroutine enqueues and flushes
// per message while the acks land on another. A flush must never mistake an
// entry it already sent for a new one because the ack removed its inflight
// record at the wrong moment — every message goes out exactly once.
func TestNoDuplicateSendUnderConcurrentAcks(t *testing.T) {
	pa, pb := newLoopPair("phone", "collector")
	phone := NewEndpoint(pa, store.OpenMemory(), vclock.Real{}, EndpointConfig{RetryAfter: time.Hour})
	collector := NewEndpoint(pb, store.OpenMemory(), vclock.Real{}, EndpointConfig{RetryAfter: time.Hour})
	pa.start()
	pb.start()

	const total = 30000
	payload := msg.Map{"n": 1.0}
	for i := 0; i < total; i++ {
		if err := phone.Enqueue("collector", "ch", payload); err != nil {
			t.Fatal(err)
		}
		phone.Flush()
		// Keep a backlog of acks in flight without letting it run away.
		for phone.Pending() > 256 {
			time.Sleep(50 * time.Microsecond)
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	for phone.Pending() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// Quiesce: once the phone's queue (the acks) is drained nothing is left
	// to produce traffic in either direction.
	pb.stop()
	pa.stop()

	if n := phone.Pending(); n != 0 {
		t.Fatalf("%d messages never acked", n)
	}
	ps, cs := phone.Stats(), collector.Stats()
	if cs.MessagesReceived != total {
		t.Errorf("collector received %d of %d", cs.MessagesReceived, total)
	}
	if cs.Duplicates != 0 {
		t.Errorf("collector saw %d duplicates", cs.Duplicates)
	}
	if ps.Retries != 0 {
		t.Errorf("phone counts %d retries with a one-hour backoff", ps.Retries)
	}
	if ps.MessagesSent != ps.MessagesEnqueued {
		t.Errorf("phone sent %d data messages for %d enqueued", ps.MessagesSent, ps.MessagesEnqueued)
	}
}

// TestRefusedSendWaitsForPolicyFlush: what the messenger refuses on a first
// transmission goes back to being unsent. The retry timer never picks it up
// (first transmission belongs to the flush policy), the next policy flush
// does, and it is neither lost nor counted twice along the way.
func TestRefusedSendWaitsForPolicyFlush(t *testing.T) {
	dests := []string{"c1", "c2", "c3"}
	clk := vclock.NewSim()
	sb := NewSwitchboard(clk)
	for _, d := range dests {
		sb.Associate("phone", d)
	}
	cb := &cuttingBatcher{Messenger: sb.Port("phone", nil), cutAt: 1, maxCuts: 1}
	ep := NewEndpoint(cb, store.OpenMemory(), clk, EndpointConfig{RetryAfter: 2 * time.Second})
	got := map[string]int{}
	cols := map[string]*Endpoint{}
	for _, d := range dests {
		d := d
		cols[d] = NewEndpoint(sb.Port(d, nil), store.OpenMemory(), clk, EndpointConfig{})
		cols[d].OnMessage(func(string, string, msg.Value) { got[d]++ })
	}
	for _, d := range dests {
		for i := 0; i < 2; i++ {
			ep.Enqueue(d, "ch", msg.Map{"n": float64(i)})
		}
	}

	// The batch is cut after c1's envelope: c2 and c3 are refused.
	if sent := ep.Flush(); sent != 2 {
		t.Fatalf("first flush sent %d, want c1's 2", sent)
	}
	// Far past every backoff: the timer has nothing to retransmit (c1 was
	// acked) and must leave the never-sent entries alone.
	clk.Advance(time.Minute)
	if got["c1"] != 2 || got["c2"] != 0 || got["c3"] != 0 {
		t.Fatalf("after the cut and a minute of timers: delivered %v, want only c1's", got)
	}
	if st := ep.Stats(); st.MessagesSent != 2 || st.Retries != 0 || ep.Pending() != 4 {
		t.Fatalf("sent=%d retries=%d pending=%d; want 2, 0, 4", st.MessagesSent, st.Retries, ep.Pending())
	}
	// A message enqueued meanwhile rides along with the refused ones, each
	// destination still in FIFO order.
	ep.Enqueue("c2", "ch", msg.Map{"n": 2.0})
	if sent := ep.Flush(); sent != 5 {
		t.Fatalf("policy flush sent %d, want the 4 refused + 1 new", sent)
	}
	clk.Advance(time.Minute)
	if got["c1"] != 2 || got["c2"] != 3 || got["c3"] != 2 {
		t.Errorf("delivered %v", got)
	}
	st := ep.Stats()
	if st.MessagesSent != 7 || st.Retries != 0 || st.MessagesAcked != 7 || ep.Pending() != 0 {
		t.Errorf("sent=%d retries=%d acked=%d pending=%d; want 7, 0, 7, 0",
			st.MessagesSent, st.Retries, st.MessagesAcked, ep.Pending())
	}
	for _, d := range dests {
		if n := cols[d].Stats().Duplicates; n != 0 {
			t.Errorf("%s saw %d duplicates", d, n)
		}
	}
	if sent := ep.Flush(); sent != 0 {
		t.Errorf("a further flush sent %d", sent)
	}
}

// TestRefusedRetransmissionKeepsItsDeadline: a retransmission the messenger
// refuses stays inflight and due, so the timer tries again at once rather
// than after another backoff, and it is a retry when it finally goes out.
func TestRefusedRetransmissionKeepsItsDeadline(t *testing.T) {
	clk := vclock.NewSim()
	sb := NewSwitchboard(clk)
	sb.Associate("phone", "col")
	cb := &cuttingBatcher{Messenger: sb.Port("phone", nil), cutAt: 0, maxCuts: 0}
	ep := NewEndpoint(cb, store.OpenMemory(), clk, EndpointConfig{RetryAfter: 2 * time.Second})
	ep.Enqueue("col", "ch", msg.Map{"n": 0.0})
	ep.Flush() // col is not attached: the switchboard drops it
	cb.maxCuts = 1
	clk.Advance(2*time.Second + 500*time.Millisecond) // retry at 2 s refused; retried within milliseconds
	if st := ep.Stats(); st.MessagesSent != 2 || st.Retries != 1 {
		t.Fatalf("sent=%d retries=%d; want the refused retransmission re-sent promptly (2, 1)",
			st.MessagesSent, st.Retries)
	}
	col := NewEndpoint(sb.Port("col", nil), store.OpenMemory(), clk, EndpointConfig{})
	got := collect(col)
	clk.Advance(time.Minute)
	if len(*got) != 1 || ep.Pending() != 0 {
		t.Errorf("delivered %d, pending %d", len(*got), ep.Pending())
	}
}

// ackPort is a Messenger whose peer answers before Send returns: every
// payload goes to onSend, which may call recv — so an ack is back before the
// flush's own bookkeeping runs, the extreme of the race loopPort leaves to
// the scheduler. With onSend unset, payloads vanish.
type ackPort struct {
	id     string
	recv   func(from string, payload []byte)
	onSend func(payload []byte)
}

func (p *ackPort) LocalID() string { return p.id }
func (p *ackPort) Online() bool    { return true }
func (p *ackPort) Send(to string, payload []byte) error {
	if p.onSend != nil {
		p.onSend(payload)
	}
	return nil
}
func (p *ackPort) OnReceive(fn func(from string, payload []byte)) { p.recv = fn }
func (p *ackPort) OnOnline(func())                                {}
func (p *ackPort) OnPresence(func(peer string, online bool))      {}
func (p *ackPort) Peers() []string                                { return []string{"collector"} }

// idleClock stands still and never fires.
type idleClock struct{}

func (idleClock) Now() time.Time                               { return vclock.SimEpoch }
func (idleClock) AfterFunc(time.Duration, func()) vclock.Timer { return idleTimer{} }

type idleTimer struct{}

func (idleTimer) Stop() bool { return true }

// TestFlushCostIndependentOfInflight: with a thousand entries sent and
// unacknowledged, enqueueing one message and flushing it allocates only the
// outbox's copy of the payload — the flush builds no per-backlog scratch and
// its inflight records are recycled — and an ack that returns inside Send
// leaves no inflight record behind to be retransmitted later.
func TestFlushCostIndependentOfInflight(t *testing.T) {
	port := &ackPort{id: "phone"}
	phone := NewEndpoint(port, store.OpenMemory(), idleClock{}, EndpointConfig{RetryAfter: time.Hour})
	payload := msg.Map{"level": 0.93}
	for i := 0; i < 1000; i++ {
		phone.Enqueue("collector", "stuck", payload)
		phone.Flush()
	}
	// From here on the peer acks each envelope as it is sent. Outbox IDs are
	// consecutive, so the ack is built without decoding anything (and names
	// no sender or boot: the receive path's string interning, whose state is
	// process-wide, stays out of the count).
	next := [1]uint64{1001}
	var ack []byte
	port.onSend = func([]byte) {
		ack = frameInto(appendEnvelope(append(ack[:0], frameHeader[:]...), "", "", nil, next[:], nil, nil))
		next[0]++
		port.recv("collector", ack)
	}
	op := func() {
		phone.Enqueue("collector", "ch", payload)
		phone.Flush()
	}
	for i := 0; i < 100; i++ {
		op() // warm the buffer pools
	}
	budget := 1.0
	if raceEnabled {
		budget = 8 // the wire-buffer pools leak under -race
	}
	if allocs := testing.AllocsPerRun(500, op); allocs > budget {
		t.Errorf("enqueue + flush + ack with 1000 inflight: %.1f allocs/op, want ≤ %.0f (the outbox's payload copy)", allocs, budget)
	}
	phone.mu.Lock()
	inflight, queued := len(phone.inflight), len(phone.retryq)
	phone.mu.Unlock()
	if inflight != 1000 || queued != 1000 || phone.Pending() != 1000 {
		t.Errorf("inflight records %d, queued deadlines %d, pending %d; want the 1000 unacked in each",
			inflight, queued, phone.Pending())
	}
	if st := phone.Stats(); st.Retries != 0 || st.MessagesSent != st.MessagesEnqueued || st.MessagesAcked != 601 {
		t.Errorf("retries %d, sent %d of %d enqueued, acked %d of 601", st.Retries, st.MessagesSent, st.MessagesEnqueued, st.MessagesAcked)
	}
}

// TestDeadlineQueue drives the queue against a plain slice: pops come out in
// deadline order, removals from the middle keep it a heap, and every record
// knows where it sits.
func TestDeadlineQueue(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	t0 := vclock.SimEpoch
	var q deadlineQueue
	var model []*sendState
	check := func() {
		t.Helper()
		if len(q) != len(model) {
			t.Fatalf("len = %d, model %d", len(q), len(model))
		}
		for i, st := range q {
			if st.pos != i {
				t.Fatalf("record %d thinks it sits at %d", i, st.pos)
			}
			if i > 0 && st.due.Before(q[(i-1)/2].due) {
				t.Fatalf("heap order broken at %d", i)
			}
		}
	}
	for step := 0; step < 5000; step++ {
		switch r := rng.Intn(10); {
		case r < 5:
			st := &sendState{id: uint64(step), due: t0.Add(time.Duration(rng.Intn(1000)) * time.Second)}
			q.push(st)
			model = append(model, st)
		case r < 8 && len(model) > 0:
			i := rng.Intn(len(model))
			st := model[i]
			model = append(model[:i], model[i+1:]...)
			q.remove(st)
			if st.pos != -1 {
				t.Fatal("removed record still claims a position")
			}
		default:
			now := t0.Add(time.Duration(rng.Intn(1000)) * time.Second)
			st := q.popDue(now)
			var want *sendState
			for _, m := range model {
				if !m.due.After(now) && (want == nil || m.due.Before(want.due)) {
					want = m
				}
			}
			if (st == nil) != (want == nil) || (st != nil && !st.due.Equal(want.due)) {
				t.Fatalf("popDue(%v) = %v, model says %v", now, st, want)
			}
			for i, m := range model {
				if m == st {
					model = append(model[:i], model[i+1:]...)
					break
				}
			}
		}
		check()
	}
}
