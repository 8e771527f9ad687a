package transport

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"pogo/internal/msg"
	"pogo/internal/obs"
	"pogo/internal/store"
	"pogo/internal/vclock"
)

// The reference model of the delivery core: a sender and a receiver written
// from the protocol as DESIGN.md states it ("Outbox and flush", "Delivery
// core"), in plain maps and slices, driven in step with real cores (each on
// a memory outbox) over a network the test holds in its hands.

const (
	modelRetryAfter = 2 * time.Second
	modelMaxAge     = 40 * time.Second
	modelTraceSeed  = 7
)

// a and b send to c and d; every node acks what it receives.
var (
	modelNodes    = []string{"a", "b", "c", "d"}
	modelChannels = []string{"x", "y"}
)

// nonCanonical is a body no encoder writes: map keys out of order.
var nonCanonical = []byte{0x07, 2, 1, 'b', 0x00, 1, 'a', 0x00}

// refEntry is one message buffered at a reference sender.
type refEntry struct {
	id, seq  uint64
	to, ch   string
	body     []byte
	at       time.Time
	pub      uint64    // the relayed local publication's number; 0: a root
	sent     bool      // handed to the messenger in this boot
	attempts int       // transmissions in this boot
	due      time.Time // next retransmission, once sent
}

// refChan is a reference receiver's FIFO state for one (sender, channel).
type refChan struct {
	next, floor uint64
	held        map[uint64]envelopeItem
}

type refPeer struct {
	boot  string
	epoch int // numbers the lifetimes of this state, across resets
	chans map[string]*refChan
}

// refNode is one node of the reference: sender and receiver.
type refNode struct {
	name, boot string
	nextID     uint64 // outbox IDs: the outbox outlives a reboot
	pending    []*refEntry
	byID       map[uint64]*refEntry // the pending entries
	nextSeq    map[[2]string]uint64 // (dest, channel)
	owed       map[[2]string]bool   // floors owed since a purge, (dest, channel)
	peers      map[string]*refPeer
	epochs     int // peer states created
	stats      Stats
}

// refEnvelope is what the reference predicts one flush sends to one
// destination.
type refEnvelope struct {
	to       string
	items    []envelopeItem
	traces   []obs.TraceID // each item's trace, as Outgoing.Traces carries it
	prior    []int         // transmissions of each item before this one
	floorCh  []string
	floorSeq []uint64
}

func newRefNode(name, boot string) *refNode {
	return &refNode{name: name, boot: boot, nextID: 1, byID: map[uint64]*refEntry{},
		nextSeq: map[[2]string]uint64{}, owed: map[[2]string]bool{}, peers: map[string]*refPeer{}}
}

func (n *refNode) find(id uint64) *refEntry { return n.byID[id] }

// trace is the trace e travels under: its publication's, or its root.
func (n *refNode) trace(e *refEntry) obs.TraceID {
	if e.pub != 0 {
		return obs.NewTraceID(0, n.name+"#pub", e.pub)
	}
	return obs.NewTraceID(modelTraceSeed, n.name, e.id)
}

// item is e as an envelope carries it: a relayed publication's number, or
// the root trace itself.
func (n *refNode) item(e *refEntry) envelopeItem {
	it := envelopeItem{ID: e.id, Seq: e.seq, Channel: e.ch, Pub: e.pub, Body: e.body}
	if e.pub == 0 {
		it.Trace = uint64(n.trace(e))
	}
	return it
}

// backoff is the wait after the attempts-th transmission: RetryAfter,
// doubling per attempt, at most eight RetryAfters.
func backoff(attempts int) time.Duration {
	return modelRetryAfter << min(attempts-1, 3)
}

func (n *refNode) enqueue(now time.Time, to, ch string, body []byte, pub uint64) {
	key := [2]string{to, ch}
	e := &refEntry{id: n.nextID, seq: n.nextSeq[key], to: to, ch: ch, body: body, at: now, pub: pub}
	n.nextID++
	n.nextSeq[key]++
	n.pending = append(n.pending, e)
	n.byID[e.id] = e
	n.stats.MessagesEnqueued++
}

// purge drops what is older than the max age; each dropped entry's channel
// owes its destination a floor.
func (n *refNode) purge(now time.Time) {
	var keep []*refEntry
	for _, e := range n.pending {
		if now.Sub(e.at) > modelMaxAge {
			delete(n.byID, e.id)
			n.stats.MessagesExpired++
			n.owed[[2]string{e.to, e.ch}] = true
			continue
		}
		keep = append(keep, e)
	}
	n.pending = keep
}

// stage predicts a flush: what was never handed to the messenger (not on the
// retransmission timer) and what is due, one envelope per destination in
// destination order, entries by ID, with a floor per channel that has
// entries buffered (the oldest one's sequence) or is owed one (the next
// sequence).
func (n *refNode) stage(now time.Time, retryOnly bool) []refEnvelope {
	if !retryOnly {
		n.stats.Flushes++
	}
	byDest := map[string]*refEnvelope{}
	env := func(to string) *refEnvelope {
		if byDest[to] == nil {
			byDest[to] = &refEnvelope{to: to}
		}
		return byDest[to]
	}
	for _, e := range n.pending {
		if !e.sent && !retryOnly || e.sent && !e.due.After(now) {
			v := env(e.to)
			v.items = append(v.items, n.item(e))
			v.traces = append(v.traces, n.trace(e))
			v.prior = append(v.prior, e.attempts)
		}
	}
	for key := range n.owed {
		env(key[0])
	}
	var out []refEnvelope
	for _, to := range sortedKeys(byDest) {
		v := byDest[to]
		floors := map[string]uint64{}
		for key := range n.owed {
			if key[0] == to {
				floors[key[1]] = n.nextSeq[key]
			}
		}
		for i := len(n.pending) - 1; i >= 0; i-- { // the oldest entry wins
			if e := n.pending[i]; e.to == to {
				floors[e.ch] = e.seq
			}
		}
		for _, ch := range sortedKeys(floors) {
			v.floorCh = append(v.floorCh, ch)
			v.floorSeq = append(v.floorSeq, floors[ch])
		}
		out = append(out, *v)
	}
	return out
}

// settle books the messenger's verdict. A refusal changes nothing: a first
// transmission stays unsent, a retransmission keeps its deadline. An
// accepted envelope counts every item it carried, and the items still
// buffered (an ack may have overtaken the booking) wait for their backoff.
func (n *refNode) settle(now time.Time, v refEnvelope, accepted bool, wireLen int) {
	if !accepted {
		return
	}
	for k, it := range v.items {
		if v.prior[k] > 0 {
			n.stats.Retries++
		}
		if e := n.find(it.ID); e != nil {
			e.sent, e.attempts = true, v.prior[k]+1
			e.due = now.Add(backoff(e.attempts))
		}
	}
	n.stats.MessagesSent += len(v.items)
	n.stats.BytesSent += int64(wireLen)
	for key := range n.owed {
		if key[0] == v.to {
			delete(n.owed, key)
		}
	}
}

func (n *refNode) reconnect() {
	for _, e := range n.pending {
		if e.sent {
			e.due = time.Time{}
		}
	}
}

// reboot starts a new process lifetime on the same outbox: everything but
// the buffered entries (and so their sequences) is forgotten.
func (n *refNode) reboot(boot string) {
	n.boot, n.stats = boot, Stats{}
	n.owed, n.peers, n.nextSeq = map[[2]string]bool{}, map[string]*refPeer{}, map[[2]string]uint64{}
	for _, e := range n.pending {
		e.sent, e.attempts, e.due = false, 0, time.Time{}
		e.pub = 0 // the number died with the process: the entry travels under its root
		n.nextSeq[[2]string{e.to, e.ch}] = max(n.nextSeq[[2]string{e.to, e.ch}], e.seq+1)
	}
}

func (n *refNode) nextDeadline() (time.Time, bool) {
	var due time.Time
	ok := false
	for _, e := range n.pending {
		if e.sent && (!ok || e.due.Before(due)) {
			due, ok = e.due, true
		}
	}
	return due, ok
}

func (p *refPeer) channel(ch string) *refChan {
	if p.chans[ch] == nil {
		p.chans[ch] = &refChan{held: map[uint64]envelopeItem{}}
	}
	return p.chans[ch]
}

// receive is the receiver's half: a payload that fails its checksum, does
// not decode, or names a sender other than the one it came from is corrupt.
// Acks settle entries addressed to that sender. A sender's new boot resets
// what is known of it. Floors only rise; an item is a duplicate if it is
// held or below the channel's next sequence, and held otherwise; then every
// channel delivers in sequence order, skipping a gap only below the floor,
// to the lowest held item or to the floor. Every item is acked, duplicates
// included; a delivered body no encoder wrote is corrupt.
func (n *refNode) receive(from string, payload []byte) (delivered []envelopeItem, ack []uint64) {
	var env envelope
	body, err := unframe(payload)
	if err == nil {
		env, err = decodeEnvelope(body, new(envScratch))
	}
	if err != nil || env.From != "" && env.From != from {
		n.stats.CorruptDropped++
		return nil, nil
	}
	acked := map[*refEntry]bool{}
	for _, id := range env.Ack {
		e := n.find(id)
		if e != nil && e.to != from {
			continue
		}
		n.stats.MessagesAcked++
		if e != nil {
			delete(n.byID, id)
			acked[e] = true
		}
	}
	n.pending = slices.DeleteFunc(n.pending, func(x *refEntry) bool { return acked[x] })
	if len(env.Batch) == 0 && len(env.FloorCh) == 0 {
		return nil, nil
	}
	p := n.peers[from]
	if p == nil || len(env.Boot) > 0 && string(env.Boot) != p.boot {
		n.epochs++
		p = &refPeer{boot: string(env.Boot), epoch: n.epochs, chans: map[string]*refChan{}}
		n.peers[from] = p
	}
	for i, ch := range env.FloorCh {
		c := p.channel(ch)
		c.floor = max(c.floor, env.FloorSeq[i])
	}
	for _, it := range env.Batch {
		ack = append(ack, it.ID)
		c := p.channel(it.Channel)
		if _, held := c.held[it.Seq]; held || it.Seq < c.next {
			n.stats.Duplicates++
			continue
		}
		c.held[it.Seq] = it
	}
	for _, ch := range sortedKeys(p.chans) {
		c := p.chans[ch]
		for {
			if it, ok := c.held[c.next]; ok {
				delete(c.held, c.next)
				c.next++
				delivered = append(delivered, it)
				continue
			}
			if c.next >= c.floor {
				break
			}
			jump := c.floor
			for s := range c.held {
				if s > c.next && s < jump {
					jump = s
				}
			}
			c.next = jump
		}
	}
	n.stats.MessagesReceived += len(delivered)
	for i, it := range delivered {
		if it.Pub != 0 {
			delivered[i].Trace = uint64(obs.NewTraceID(0, from+"#pub", it.Pub))
		}
		if _, err := msg.ParseRaw(it.Body); err != nil {
			n.stats.CorruptDropped++
		}
	}
	return delivered, ack
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// modelNode is one node: the core under test, its outbox, and the reference.
type modelNode struct {
	name  string
	core  link
	box   *store.Outbox
	ref   *refNode
	sc    envScratch
	boots int
}

func (n *modelNode) start() {
	boot := fmt.Sprintf("%s#%d", n.name, n.boots)
	n.core = newLink(n.box, n.name, EndpointConfig{
		MaxAge: modelMaxAge, RetryAfter: modelRetryAfter, BootID: boot, TraceSeed: modelTraceSeed})
	if n.ref == nil {
		n.ref = newRefNode(n.name, boot)
	} else {
		n.ref.reboot(boot)
	}
}

type packet struct {
	from, to string
	payload  []byte
}

// txKey names one item a sender handed to the network for a receiver.
type txKey struct {
	from, to, ch string
	seq, id      uint64
}

func itemKey(from, to string, it envelopeItem) txKey {
	return txKey{from, to, it.Channel, it.Seq, it.ID}
}

// linkWorld drives the cores and the reference in step and checks them
// against each other after every op.
type linkWorld struct {
	t        testing.TB
	now      time.Time
	nodes    map[string]*modelNode
	net      []packet
	k        int               // messages enqueued: message k carries n = k
	lastSeq  map[string]uint64 // receiver/sender/epoch/channel → last sequence delivered
	lastN    map[string]int    // the same → last message delivered
	inAir    map[txKey]int     // copies sent, less deliveries
	injected bool              // raw bytes reached a receiver: message numbers prove nothing
	log      []string          // every delivery, "receiver<-sender/channel:n"
}

func newLinkWorld(t testing.TB) *linkWorld {
	w := &linkWorld{t: t, now: vclock.SimEpoch, nodes: map[string]*modelNode{},
		lastSeq: map[string]uint64{}, lastN: map[string]int{}, inAir: map[txKey]int{}}
	for _, name := range modelNodes {
		n := &modelNode{name: name, box: store.OpenMemory()}
		n.start()
		w.nodes[name] = n
	}
	return w
}

func (w *linkWorld) enqueue(from, to, ch string, canonical, isRelayed bool) {
	w.k++
	body := nonCanonical
	if canonical {
		var err error
		if body, err = msg.EncodeBinary(msg.Map{"n": float64(w.k)}); err != nil {
			w.t.Fatal(err)
		}
	}
	var pub relayed
	if isRelayed {
		pub.pub = uint64(1000 + w.k)
		pub.trace = obs.PublicationTrace(from, pub.pub)
	}
	n := w.nodes[from]
	id, err := n.core.enqueue(w.now, to, ch, body, pub)
	n.ref.enqueue(w.now, to, ch, body, pub.pub)
	want := n.ref.pending[len(n.ref.pending)-1]
	if got, _ := n.core.traceFor(id); err != nil || id != want.id || got != n.ref.trace(want) {
		w.t.Fatalf("enqueue at %s: id %d trace %v (%v), model %d %v", from, id, got, err, want.id, n.ref.trace(want))
	}
}

// flush runs one flush at node from; accept gives the messenger's verdict
// on envelope i of n. wired hands every accepted envelope to its receiver,
// and the receiver's ack back, before the flush books the send.
func (w *linkWorld) flush(from string, retryOnly bool, accept func(i, n int) bool, wired bool) {
	n := w.nodes[from]
	n.core.purge(n.core.expire(w.now))
	n.ref.purge(w.now)
	n.core.stage(w.now, retryOnly)
	out := n.core.encode()
	want := n.ref.stage(w.now, retryOnly)
	if len(out) != len(want) {
		w.t.Fatalf("flush at %s staged %d envelopes, model %d", from, len(out), len(want))
	}
	ok := make([]bool, len(out))
	for i, o := range out {
		w.checkEnvelope(from, o, want[i])
		if ok[i] = accept(i, len(out)); ok[i] {
			w.onWire(from, o.To, o.Payload)
		}
	}
	for i, o := range out {
		if ok[i] && wired {
			if ack := w.receiveAt(o.To, from, bytes.Clone(o.Payload)); ack != nil {
				w.receiveAt(from, o.To, ack)
			}
		}
	}
	for i, o := range out {
		n.core.settle(w.now, i, ok[i])
		n.ref.settle(w.now, want[i], ok[i], len(o.Payload))
		if ok[i] && !wired {
			w.net = append(w.net, packet{from, o.To, bytes.Clone(o.Payload)})
		}
	}
}

// checkEnvelope decodes a staged envelope and compares it with the model's.
func (w *linkWorld) checkEnvelope(from string, o Outgoing, want refEnvelope) {
	body, err := unframe(o.Payload)
	if err != nil {
		w.t.Fatalf("flush at %s: staged frame: %v", from, err)
	}
	env, err := decodeEnvelope(body, new(envScratch))
	if err != nil {
		w.t.Fatalf("flush at %s: staged envelope: %v", from, err)
	}
	if o.To != want.to || env.From != from || string(env.Boot) != w.nodes[from].ref.boot || len(env.Ack) != 0 ||
		!sameItems(env.Batch, want.items) || !slices.Equal(o.Traces, want.traces) ||
		!slices.Equal(env.FloorCh, want.floorCh) || !slices.Equal(env.FloorSeq, want.floorSeq) {
		w.t.Fatalf("flush at %s staged for %s %+v (traces %v), model for %s %+v", from, o.To, env, o.Traces, want.to, want)
	}
}

func sameItems(a, b []envelopeItem) bool {
	return slices.EqualFunc(a, b, func(x, y envelopeItem) bool {
		return x.ID == y.ID && x.Seq == y.Seq && x.Channel == y.Channel && x.Pub == y.Pub && x.Trace == y.Trace &&
			bytes.Equal(x.Body, y.Body)
	})
}

// receiveAt hands payload from peer from to node to, checks what the core
// delivers and acks against the model, and returns the ack envelope, if
// any.
func (w *linkWorld) receiveAt(to, from string, payload []byte) []byte {
	n := w.nodes[to]
	n.core.unpack(from, payload, &n.sc)
	n.core.receive(from, &n.sc)
	delivered, ack := n.ref.receive(from, payload)
	if !sameItems(n.sc.deliver, delivered) || len(n.sc.msgs) != len(delivered) {
		w.t.Fatalf("%s received from %s: delivered %+v, model %+v", to, from, n.sc.deliver, delivered)
	}
	for i, it := range delivered {
		_, err := msg.ParseRaw(it.Body)
		if n.sc.msgs[i].IsZero() != (err != nil) {
			w.t.Fatalf("%s received from %s: item %d handed over %v, body valid %v", to, from, it.ID, !n.sc.msgs[i].IsZero(), err == nil)
		}
		if k := itemKey(from, to, it); w.inAir[k] > 1 {
			w.inAir[k]--
		} else {
			delete(w.inAir, k)
		}
		// Exactly once and in order per (sender, channel), for as long as
		// the receiver keeps its state of the sender: a sender's reboot
		// starts a new one.
		key := fmt.Sprintf("%s/%s/%d/%s", to, from, n.ref.peers[from].epoch, it.Channel)
		if last, seen := w.lastSeq[key]; seen && it.Seq <= last {
			w.t.Fatalf("%s delivered sequence %d after %d: duplicate or out of order", key, it.Seq, last)
		}
		w.lastSeq[key] = it.Seq
		if err != nil {
			continue
		}
		v, _ := msg.GetNumber(n.sc.msgs[i], "n")
		if last, seen := w.lastN[key]; seen && int(v) <= last && !w.injected {
			w.t.Fatalf("%s delivered message %v after %d: duplicate or out of order", key, v, last)
		}
		w.lastN[key] = int(v)
		w.log = append(w.log, fmt.Sprintf("%s<-%s/%s:%d", to, from, it.Channel, int(v)))
	}
	if len(ack) == 0 {
		if len(n.sc.wire) != 0 {
			w.t.Fatalf("%s acked %x, model acks nothing", to, n.sc.wire)
		}
		return nil
	}
	body, err := unframe(n.sc.wire)
	if err != nil {
		w.t.Fatalf("%s ack frame: %v", to, err)
	}
	env, err := decodeEnvelope(body, new(envScratch))
	if err != nil || env.From != to || string(env.Boot) != n.ref.boot || !slices.Equal(env.Ack, ack) ||
		len(env.Batch) != 0 || len(env.FloorCh) != 0 {
		w.t.Fatalf("%s acked %+v (%v), model acks %v", to, env, err, ack)
	}
	return bytes.Clone(n.sc.wire)
}

// deliver hands in-flight packet i to its receiver; an ack goes back into
// the network.
func (w *linkWorld) deliver(i int) {
	p := w.net[i]
	w.net = slices.Delete(w.net, i, i+1)
	if ack := w.receiveAt(p.to, p.from, p.payload); ack != nil {
		w.net = append(w.net, packet{p.to, p.from, ack})
	}
}

// onWire counts the items of a copy of payload put on the wire.
func (w *linkWorld) onWire(from, to string, payload []byte) {
	if body, err := unframe(payload); err == nil {
		if env, err := decodeEnvelope(body, new(envScratch)); err == nil {
			for _, it := range env.Batch {
				w.inAir[itemKey(from, to, it)]++
			}
		}
	}
}

// inject feeds arbitrary bytes to node to as if from peer from.
func (w *linkWorld) inject(from, to string, payload []byte) {
	w.onWire(from, to, payload)
	w.injected = true
	if ack := w.receiveAt(to, from, payload); ack != nil {
		w.net = append(w.net, packet{to, from, ack})
	}
}

func (w *linkWorld) reconnect(name string) {
	n := w.nodes[name]
	n.core.reconnect()
	n.ref.reconnect()
}

// reboot restarts a node on its outbox under a new boot.
func (w *linkWorld) reboot(name string) {
	n := w.nodes[name]
	n.boots++
	n.start()
}

func acceptAll(int, int) bool { return true }

// heal stops the faults: every node reconnects and flushes, and the network
// delivers everything, acks included, in order. The outboxes must drain.
func (w *linkWorld) heal() {
	for _, name := range modelNodes {
		w.reconnect(name)
		w.flush(name, false, acceptAll, false)
	}
	for len(w.net) > 0 {
		w.deliver(0)
	}
	w.check("heal")
	for _, name := range modelNodes {
		if n := w.nodes[name].box.Len(); n != 0 {
			w.t.Fatalf("%s: %d entries still buffered after the heal", name, n)
		}
	}
}

// check compares every core with its reference: counters, the outbox, the
// inflight records and the retransmission deadline, and the receiver's
// per-sender state; and it bounds hold by what is in flight.
func (w *linkWorld) check(op any) {
	for _, name := range modelNodes {
		n := w.nodes[name]
		core, ref := &n.core, n.ref
		if core.stats != ref.stats {
			w.t.Fatalf("op %v: %s stats %+v, model %+v", op, name, core.stats, ref.stats)
		}
		var ids, wantIDs []uint64
		for _, e := range n.box.Pending() {
			ids = append(ids, e.ID)
		}
		sent := map[uint64]int{}
		for _, e := range ref.pending {
			wantIDs = append(wantIDs, e.id)
			if e.sent {
				sent[e.id] = e.attempts
				if st := core.inflight[e.id]; st == nil || !st.due.Equal(e.due) {
					w.t.Fatalf("op %v: %s entry %d inflight %+v, model due %v", op, name, e.id, st, e.due)
				}
			}
		}
		inflight := map[uint64]int{}
		for id, st := range core.inflight {
			inflight[id] = st.attempts
		}
		if !slices.Equal(ids, wantIDs) || !reflect.DeepEqual(inflight, sent) {
			w.t.Fatalf("op %v: %s buffers %v with attempts %v, model %v with %v", op, name, ids, inflight, wantIDs, sent)
		}
		due, ok := core.nextDeadline()
		wantDue, wantOK := ref.nextDeadline()
		if ok != wantOK || !due.Equal(wantDue) {
			w.t.Fatalf("op %v: %s next deadline %v (%v), model %v (%v)", op, name, due, ok, wantDue, wantOK)
		}
		if len(core.peers) != len(ref.peers) {
			w.t.Fatalf("op %v: %s knows %d senders, model %d", op, name, len(core.peers), len(ref.peers))
		}
		for from, rp := range ref.peers {
			ps := core.peers[from]
			if ps == nil || ps.boot != rp.boot || len(ps.chans) != len(rp.chans) {
				w.t.Fatalf("op %v: %s state of %s %+v, model %+v", op, name, from, ps, rp)
			}
			held, inAir := 0, 0
			for ch, rc := range rp.chans {
				c := ps.chans[ch]
				if c == nil || c.next != rc.next || c.floor != rc.floor ||
					!slices.Equal(sortedKeys(c.hold), sortedKeys(rc.held)) {
					w.t.Fatalf("op %v: %s channel %s/%s %+v, model %+v", op, name, from, ch, c, rc)
				}
				for _, it := range c.hold {
					if w.inAir[itemKey(from, name, it)] == 0 {
						w.t.Fatalf("op %v: %s holds item %d from %s, which is not in flight", op, name, it.ID, from)
					}
				}
				held += len(c.hold)
			}
			for k, copies := range w.inAir {
				if k.from == from && k.to == name {
					inAir += copies
				}
			}
			if held > inAir {
				w.t.Fatalf("op %v: %s holds %d items from %s, %d in flight", op, name, held, from, inAir)
			}
		}
	}
}

// runLinkModel decodes data into ops, three bytes each — enqueue (on two
// senders, two destinations, two channels; a relayed trace, a body no
// encoder wrote), a policy or retry-only flush with the messenger's verdict
// (all taken, delivered and acked before the booking, some destinations
// refused, or a batch cut after a prefix), time passing (past the max age
// too), delivering, dropping, duplicating or corrupting an in-flight
// envelope (any of them: the network reorders) or sending a copy of it
// from or to another node, a reconnect, a sender's reboot, and raw bytes (the next few of data, framed or not) as an inbound
// payload — and runs them through the cores and the model, checking after
// every op. Then it heals the network and checks that the outboxes drain.
func runLinkModel(t testing.TB, data []byte) *linkWorld {
	if len(data) > 3*600 {
		data = data[:3*600]
	}
	w := newLinkWorld(t)
	for i := 0; i+2 < len(data); i += 3 {
		op, a, b := data[i]%10, int(data[i+1]), int(data[i+2])
		switch op {
		case 0, 1:
			w.enqueue(modelNodes[a%2], modelNodes[2+a>>1%2], modelChannels[a>>2%2], b&0x0f != 0x0f, b&0x30 == 0x30)
		case 2, 3:
			accept := acceptAll
			switch mode := b % 4; mode {
			case 2: // plain sends: each destination refused on its own
				accept = func(i, _ int) bool { return b>>(2+i)&1 == 0 }
			case 3: // a batch cut after a prefix
				accept = func(i, n int) bool { return i < (b>>2)%(n+1) }
			}
			w.flush(modelNodes[a%4], op == 3, accept, a&8 != 0 && b%4 < 2)
		case 4:
			d := time.Duration(b%32) * 250 * time.Millisecond
			if a%16 == 15 {
				d = modelMaxAge + time.Second
			}
			w.now = w.now.Add(d)
		case 5, 6:
			if len(w.net) > 0 {
				w.deliver(b % len(w.net))
			}
		case 7:
			if len(w.net) == 0 {
				continue
			}
			i := b % len(w.net)
			switch a % 5 {
			case 0:
				w.net = slices.Delete(w.net, i, i+1)
			case 1:
				p := w.net[i]
				w.onWire(p.from, p.to, p.payload)
				w.net = append(w.net, packet{p.from, p.to, bytes.Clone(p.payload)})
			case 2:
				p := w.net[i].payload
				p[(a>>3)%len(p)] ^= byte(1 + b>>4)
			case 3: // another node sends a copy as its own
				p := w.net[i]
				w.inject(modelNodes[a>>3%4], p.to, bytes.Clone(p.payload))
			case 4: // the sender sends a copy to another node
				p := w.net[i]
				w.inject(p.from, modelNodes[a>>3%4], bytes.Clone(p.payload))
			}
		case 8:
			if a%2 == 0 {
				w.reconnect(modelNodes[a>>1%4])
			} else {
				w.reboot(modelNodes[a>>1%2])
			}
		case 9:
			size := min(b%48, len(data)-i-3)
			payload := bytes.Clone(data[i+3 : i+3+size])
			i += size
			if a&16 != 0 {
				payload = frameInto(append(frameHeader[:], payload...))
			}
			w.inject(modelNodes[a%4], modelNodes[a>>2%4], payload)
		}
		w.check(i / 3)
	}
	w.heal()
	return w
}

// linkModelStream is seeded op stream number seed of TestLinkModel.
func linkModelStream(seed int64) []byte {
	data := make([]byte, 3*400)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// TestLinkModel runs 100 seeded op streams through runLinkModel.
func TestLinkModel(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		runLinkModel(t, linkModelStream(seed))
	}
}

// FuzzLink is the model check with op streams from the fuzzer; its raw
// bytes also reach the receive path, framed and unframed, as inbound
// payloads. The seeds are the first 100 ops of TestLinkModel's streams: with
// whole 400-op streams the coverage-guided fuzzer makes almost no progress.
func FuzzLink(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(linkModelStream(seed)[:3*100])
	}
	// A straggler from the sender's previous boot, arriving after the new
	// boot's replay was delivered, resets the receiver's state of the sender
	// once more and is held.
	f.Add([]byte("2C0210z10\"002102C0z10\"0(z1070070A070z1098B"))
	// Envelope v4's trace forms, injected as a's to c (op 9, framed) ahead
	// of a seeded stream: publication delta 0, a wrapping delta, an explicit
	// ID, and a truncated explicit ID.
	inject := func(wire []byte) []byte {
		return append(append([]byte{9, 24, byte(len(wire))}, wire...), linkModelStream(1)[:3*30]...)
	}
	for _, batch := range [][]envelopeItem{
		{{ID: 1, Seq: 0, Channel: "x", Pub: 1}, {ID: 2, Seq: 1, Channel: "x", Pub: 2}},
		{{ID: 1, Seq: 0, Channel: "x", Pub: 1 << 63}, {ID: 2, Seq: 1, Channel: "x", Pub: 3}},
		{{ID: 1, Seq: 0, Channel: "x", Trace: 0x0123456789abcdef}},
	} {
		f.Add(inject(encodeEnvelope(&envelope{From: "a", Boot: []byte("a#0"), Batch: batch})))
	}
	explicit := encodeEnvelope(&envelope{From: "a", Boot: []byte("a#0"), Batch: []envelopeItem{{ID: 1, Channel: "x", Trace: 7}}})
	f.Add(inject(explicit[:len(explicit)-6]))
	f.Fuzz(func(t *testing.T, data []byte) { runLinkModel(t, data) })
}

// TestSenderRebootLosesHeldItems pins a loss the protocol has, and the
// reference predicts: items acked on arrival while held for an earlier gap
// are discarded when the sender's new boot resets the receiver's state of
// it. Sequence 0 is lost; 1–3 arrive, are held and acked; the sender reboots
// and replays 0 under the new boot; the collector delivers 0 alone. Acking
// only what was delivered (ROADMAP item 4) removes the loss; this test then
// changes with the protocol.
func TestSenderRebootLosesHeldItems(t *testing.T) {
	w := newLinkWorld(t)
	step := func(op string, f func()) {
		f()
		w.check(op)
	}
	step("enqueue 0", func() { w.enqueue("a", "c", "x", true, false) })
	step("flush, lost", func() {
		w.flush("a", false, acceptAll, false)
		w.net = w.net[:0]
	})
	for i := 1; i <= 3; i++ {
		step("enqueue", func() { w.enqueue("a", "c", "x", true, false) })
	}
	step("flush 1-3, held and acked", func() {
		w.flush("a", false, acceptAll, false)
		w.deliver(0) // to c, which holds them
		w.deliver(0) // the ack, back at a
	})
	if got := w.nodes["a"].box.Len(); got != 1 || len(w.log) != 0 {
		t.Fatalf("before the reboot: %d buffered, delivered %v; want sequence 0 alone buffered, nothing delivered", got, w.log)
	}
	step("reboot", func() { w.reboot("a") })
	step("replay", func() {
		w.flush("a", false, acceptAll, false)
		w.deliver(0)
		w.deliver(0)
	})
	w.heal()
	if want := []string{"c<-a/x:1"}; !slices.Equal(w.log, want) || w.nodes["a"].box.Len() != 0 {
		t.Errorf("delivered %v with %d buffered; want %v and none: messages 2–4 are lost",
			w.log, w.nodes["a"].box.Len(), want)
	}
}

// TestSenderRebootRedeliversUnackedItem pins the duplicate beside that loss:
// an item delivered whose ack was lost is replayed by the rebooted sender,
// and the receiver, its state of the sender reset by the new boot, delivers
// it again. ROADMAP item 4 takes this with the loss above.
func TestSenderRebootRedeliversUnackedItem(t *testing.T) {
	w := newLinkWorld(t)
	w.enqueue("a", "c", "x", true, false)
	w.flush("a", false, acceptAll, false)
	w.deliver(0)
	w.net = w.net[:0] // the ack
	w.check("ack lost")
	w.reboot("a")
	w.check("reboot")
	w.heal()
	if want := []string{"c<-a/x:1", "c<-a/x:1"}; !slices.Equal(w.log, want) {
		t.Errorf("delivered %v, want %v: message 1 twice", w.log, want)
	}
}

// TestRebootReplaysRelayedEntriesExplicit: a relayed publication travels as
// its number, but the number dies with the process that relayed it. The
// rebooted sender replays the entry under its root trace, carried whole,
// and the receiver delivers it.
func TestRebootReplaysRelayedEntriesExplicit(t *testing.T) {
	w := newLinkWorld(t)
	items := func() []envelopeItem {
		t.Helper()
		body, err := unframe(w.net[len(w.net)-1].payload)
		if err != nil {
			t.Fatal(err)
		}
		env, err := decodeEnvelope(body, new(envScratch))
		if err != nil {
			t.Fatal(err)
		}
		return env.Batch
	}
	w.enqueue("a", "c", "x", true, true)
	w.enqueue("a", "c", "x", true, true)
	w.flush("a", false, acceptAll, false)
	for _, it := range items() {
		if it.Pub == 0 || it.Trace != 0 {
			t.Fatalf("before the reboot item %d travels as %+v, want its publication number alone", it.ID, it)
		}
	}
	w.net = w.net[:0] // lost
	w.reboot("a")
	w.flush("a", false, acceptAll, false)
	for _, it := range items() {
		if root := obs.NewTraceID(modelTraceSeed, "a", it.ID); it.Pub != 0 || it.Trace != uint64(root) {
			t.Fatalf("after the reboot item %d travels as %+v, want its root %s whole", it.ID, it, root)
		}
	}
	w.check("replay staged")
	w.heal()
	if want := []string{"c<-a/x:1", "c<-a/x:2"}; !slices.Equal(w.log, want) {
		t.Errorf("delivered %v, want %v", w.log, want)
	}
}
