// Package transport implements Pogo's reliable message layer on top of the
// best-effort XMPP switchboard (§4.6 of the paper).
//
// XMPP loses messages when phones hop between wireless interfaces, so Pogo
// implements its own end-to-end acknowledgements. Outbound messages are
// buffered in a durable outbox (internal/store) and flushed in batches —
// either on a timer, or opportunistically inside another application's 3G
// tail (internal/tail). The receiver deduplicates retransmissions and acks
// every batch; the sender removes entries from its outbox only when acked.
//
// On top of the paper's ack scheme the endpoint hardens delivery against the
// faults internal/faultnet injects:
//
//   - every payload is CRC-32C-framed, so a byte flipped in flight is detected
//     even when the corrupted bytes still parse as an envelope;
//   - unacked entries retransmit with capped exponential backoff, and a
//     reconnect resets the backoff and replays the outbox immediately;
//   - each entry carries a per-(destination, channel) sequence number; the
//     receiver holds out-of-order arrivals back and delivers each channel in
//     FIFO order, exactly once while it keeps its state of the sender (a
//     sender's reboot can still lose items held for a gap, or repeat one
//     whose ack was lost: DESIGN.md, "Delivery core");
//   - envelopes carry per-channel floors (the lowest sequence still live in
//     the sender's outbox) so the receiver can skip gaps left by the max-age
//     purge or a pre-reboot ack instead of stalling forever;
//   - everything is keyed by the sender the messenger authenticated: an
//     envelope naming another is dropped as corrupt, and an ack settles only
//     entries addressed to the peer it came from.
//
// An endpoint is two layers. The delivery core (link.go) is the protocol as
// one state machine — the sender's cursor, refused list and retransmission
// deadlines over the outbox, and the receiver's per-sender FIFO state — with
// no clock, lock, timer, messenger or instrument: every input carries its
// instant and every output lands in recycled scratch. Endpoint drives it: it
// owns the lock and the one flusher, the messenger, the retransmission
// timer, the handlers, and every metric, ledger charge and span, each
// recorded in one place from the core's outputs. A reference model checks
// the core op by op (TestLinkModel, FuzzLink).
//
// A flush costs what it sends, not what is pending. The core selects against
// the live outbox: on a policy flush the entries past a send cursor
// (everything enqueued since the last one) and the entries the messenger
// refused last time; on every flush the inflight entries at the head of a
// deadline queue whose backoff has run out. The same queue's head is the
// instant the retransmission timer is armed for, and the outbox answers the
// floors from its own per-channel bookkeeping — no step looks at an entry
// the flush does not send.
//
// Two Messenger implementations are provided: a real XMPP client adapter
// (xmppnet.go) used by the cmd/ binaries, and an in-memory adapter of the
// same switchboard core (memnet.go) whose deliveries traverse the simulated
// radios — so every byte a simulated device sends or receives costs modem
// energy and moves the traffic counters the tail detector watches.
package transport

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pogo/internal/msg"
	"pogo/internal/obs"
	"pogo/internal/store"
	"pogo/internal/vclock"
)

// ErrOffline reports that no network interface is currently active.
var ErrOffline = errors.New("transport: offline")

// Messenger is the unreliable, switchboard-routed datagram layer beneath an
// Endpoint. Send may silently lose payloads (recipient's offline queue full,
// recipient off the roster); reliability lives in the Endpoint.
type Messenger interface {
	// LocalID returns this node's identity (the XMPP user name).
	LocalID() string
	// Online reports whether a network interface is currently active.
	Online() bool
	// Send transmits payload to peer `to`. It returns ErrOffline when no
	// interface is active; otherwise delivery is best-effort.
	Send(to string, payload []byte) error
	// OnReceive registers the single inbound payload handler. The payload
	// is the handler's to keep, unless the messenger lends it (lender):
	// then it is the messenger's again once the handler returns. A wrapper
	// that hands on a lent payload must copy it or lend it on.
	OnReceive(fn func(from string, payload []byte))
	// OnOnline registers a handler invoked whenever connectivity is
	// (re-)established — Pogo reconnects and flushes on interface changes.
	OnOnline(fn func())
	// OnPresence registers a handler for roster peers appearing and
	// disappearing.
	OnPresence(fn func(peer string, online bool))
	// Peers returns the roster: the peers this node may exchange messages
	// with.
	Peers() []string
}

// TraceSender is implemented by messengers that can carry trace context
// outside the opaque payload (the XMPP adapter stamps the stanza's trace
// field so the switchboard can record route/offline/replay hops without
// parsing envelopes). traces holds the batch's trace IDs in item order; zero
// entries are untraced. The endpoint does not call it: every such messenger
// is a BatchSender too, and Outgoing carries the same traces.
type TraceSender interface {
	SendTraced(to string, payload []byte, traces []obs.TraceID) error
}

// lender marks a messenger that may only lend the payloads it hands its
// OnReceive handler, as BatchSender marks one that coalesces: the XMPP
// adapter passes the view of its connection's read buffer, with no copy, and
// reads the next frame over it once the handler returns. The endpoint then
// copies what it keeps of a payload, the bodies it delivers or holds back,
// into the one slab it allocates for the envelope's rebuilt bodies anyway.
type lender interface {
	// lendsPayloads reports whether the payloads are lent.
	lendsPayloads() bool
}

// Outgoing is one destination's framed envelope within a coalesced flush
// write. Traces holds the batch's trace IDs in item order (empty for
// floor/ack-only envelopes); zero entries are untraced.
type Outgoing struct {
	To      string
	Payload []byte
	Traces  []obs.TraceID
}

// BatchSender is optionally implemented by messengers that can coalesce one
// flush's envelopes into fewer writes — the XMPP adapter buffers every
// destination's envelope and issues a single conn.Write per connection.
// SendBatch reports how many envelopes (a strict prefix of batch) were
// accepted for transmission; the endpoint treats the remainder as send
// failures — entries not yet transmitted stay unsent for the next flush,
// retransmissions stay due — so a connection cut mid-batch degrades into
// retries, never loss or duplicates.
// Implementations must copy any payload they retain: the buffer is reused
// once SendBatch returns.
type BatchSender interface {
	SendBatch(batch []Outgoing) (int, error)
}

// Stats counts an endpoint's transport activity.
type Stats struct {
	MessagesEnqueued int
	MessagesSent     int // data messages handed to the messenger (incl. retransmits)
	MessagesAcked    int
	MessagesExpired  int // purged by the max-age policy
	MessagesReceived int // deduplicated deliveries to the application
	Duplicates       int
	Retries          int // retransmissions of previously sent entries
	CorruptDropped   int // inbound payloads failing the frame check or the decoder or naming another sender; bodies no encoder wrote
	BytesSent        int64
	Flushes          int
}

// EndpointConfig configures an Endpoint.
type EndpointConfig struct {
	// MaxAge drops buffered messages older than this (0 disables; the
	// deployment used store.DefaultMaxAge = 24 h).
	MaxAge time.Duration
	// RetryAfter is how long a sent-but-unacked entry waits before its first
	// retransmission; subsequent waits double per attempt, up to
	// 8 × RetryAfter. Default 30 s.
	RetryAfter time.Duration
	// BootID identifies this process lifetime; defaults to the clock's
	// construction instant. After a reboot (new Endpoint, possibly a fresh
	// outbox with restarting IDs) peers reset their dedup state for us.
	BootID string
	// Obs, when non-nil, receives the endpoint's metrics and lifecycle
	// trace events (labeled by the messenger's local id). Timestamps come
	// from the endpoint's clock, so simulated runs trace deterministically.
	Obs *obs.Registry
	// Entity overrides the ledger device axis that this endpoint's bytes
	// are charged to; defaults to the messenger's local id. Experiments use
	// it to keep per-trial accounting apart in one registry.
	Entity string
	// TraceSeed seeds the deterministic trace-ID derivation for the roots
	// this endpoint sends — every entry but a relayed publication's
	// (obs.NewTraceID(TraceSeed, localID, outboxID)). Trace assignment is independent of Obs — the wire bytes
	// are identical whether or not a registry is attached — so enabling
	// observability never perturbs a seeded run.
	TraceSeed int64
}

// endpointObs bundles the endpoint's instruments. With no registry attached
// every field is nil, and since all instrument methods are nil-safe the
// struct is always usable — callers never test for "observability off".
type endpointObs struct {
	node           string
	spans          *obs.SpanStore
	enqueued       *obs.Counter
	sent           *obs.Counter
	acked          *obs.Counter
	expired        *obs.Counter
	received       *obs.Counter
	duplicates     *obs.Counter
	retries        *obs.Counter
	corruptDropped *obs.Counter
	bytesSent      *obs.Counter // data-batch payload bytes only (mirrors Stats.BytesSent)
	ackBytes       *obs.Counter // ack-envelope bytes, counted separately
	bytesRecv      *obs.Counter
	flushes        *obs.Counter
	sendErrors     *obs.Counter
	batchSize      *obs.Histogram
	queueDelay     *obs.Histogram

	// Ledger attribution. deviceMeter carries wire-level totals on the
	// (entity, "", "") row — data envelopes uplink, everything received
	// downlink — while per-channel rows carry payload-level bytes, so the
	// device row is NOT the sum of the channel rows (framing and batching
	// overhead lives only on the device row).
	ledger      *obs.Ledger
	entity      string
	deviceMeter *obs.Meter
}

// noopEndpointObs is the shared instrument bundle for endpoints without a
// registry: every instrument is nil (all methods are nil-safe no-ops) and the
// node/entity fields are never read on the no-registry path — trace IDs are
// derived from the messenger's LocalID, and the ledger guard in chargeChannel
// fires before entity is touched. Sharing one struct instead of allocating
// ~20 pointers per endpoint matters when an experiment builds 100k of them.
var noopEndpointObs = &endpointObs{}

func newEndpointObs(reg *obs.Registry, node, entity string) *endpointObs {
	if entity == "" {
		entity = node
	}
	if reg == nil {
		return noopEndpointObs
	}
	l := obs.L("node", node)
	return &endpointObs{
		node:           node,
		ledger:         reg.Ledger(),
		entity:         entity,
		deviceMeter:    reg.Meter(entity, "", ""),
		spans:          reg.Spans(),
		enqueued:       reg.Counter("transport_messages_enqueued_total", l),
		sent:           reg.Counter("transport_messages_sent_total", l),
		acked:          reg.Counter("transport_messages_acked_total", l),
		expired:        reg.Counter("transport_messages_expired_total", l),
		received:       reg.Counter("transport_messages_received_total", l),
		duplicates:     reg.Counter("transport_duplicates_total", l),
		retries:        reg.Counter("transport_retries_total", l),
		corruptDropped: reg.Counter("transport_corrupt_dropped_total", l),
		bytesSent:      reg.Counter("transport_bytes_sent_total", l),
		ackBytes:       reg.Counter("transport_ack_bytes_sent_total", l),
		bytesRecv:      reg.Counter("transport_bytes_received_total", l),
		flushes:        reg.Counter("transport_flushes_total", l),
		sendErrors:     reg.Counter("transport_send_errors_total", l),
		batchSize:      reg.Histogram("transport_batch_size_messages", obs.CountBuckets, l),
		queueDelay:     reg.Histogram("transport_queue_delay_seconds", obs.DefBuckets, l),
	}
}

// tracing reports whether a registry is attached. Hot paths use it to skip
// building detail strings ("to="+dest, ...) that the nil-safe span no-op
// would otherwise force to be concatenated for nothing.
func (o *endpointObs) tracing() bool { return o.spans != nil }

// span records one causal hop against the message's trace ID; no-op when no
// registry is attached or the message is untraced.
func (o *endpointObs) span(at time.Time, trace obs.TraceID, stage obs.Stage, channel string, id uint64, detail string) {
	o.spans.Record(at, trace, stage, o.node, channel, id, detail)
}

// chargeChannel books payload bytes on the (entity, "", channel) ledger row;
// n < 0 charges downlink, n > 0 uplink.
func (o *endpointObs) chargeChannel(channel string, n int64) {
	if o.ledger == nil {
		return
	}
	m := o.ledger.Meter(o.entity, "", channel)
	if n < 0 {
		m.AddDownlink(-n)
	} else {
		m.AddUplink(n)
	}
}

// count adds what one core call changed in Stats to the counters that
// mirror it, so the two agree by construction.
func (o *endpointObs) count(before, after Stats) {
	add := func(c *obs.Counter, n int64) {
		if n != 0 {
			c.Add(n)
		}
	}
	add(o.enqueued, int64(after.MessagesEnqueued-before.MessagesEnqueued))
	add(o.sent, int64(after.MessagesSent-before.MessagesSent))
	add(o.acked, int64(after.MessagesAcked-before.MessagesAcked))
	add(o.expired, int64(after.MessagesExpired-before.MessagesExpired))
	add(o.received, int64(after.MessagesReceived-before.MessagesReceived))
	add(o.duplicates, int64(after.Duplicates-before.Duplicates))
	add(o.retries, int64(after.Retries-before.Retries))
	add(o.corruptDropped, int64(after.CorruptDropped-before.CorruptDropped))
	add(o.bytesSent, after.BytesSent-before.BytesSent)
	add(o.flushes, int64(after.Flushes-before.Flushes))
}

// Endpoint is the reliable batching layer of one node: a driver around the
// delivery core (link). It owns what the core does not — the lock that
// guards it, the one flusher, the messenger, the retransmission timer, the
// handlers, the receive scratch and every instrument — and records each
// instrument in one place, from the core's outputs. The zero value is not
// usable; construct with NewEndpoint. All methods are goroutine-safe.
type Endpoint struct {
	m    Messenger
	lent bool // m lends its payloads: keep no view of one past receive
	clk  vclock.Clock

	mu         sync.Mutex // guards core, handler, onWire and retryTimer
	core       link
	handler    func(from, channel string, payload msg.Raw, trace obs.TraceID)
	onWire     func(sentBytes, recvBytes int64)
	retryTimer vclock.Timer // pending self-driven retransmission, if any
	retryFn    func()       // the timer's callback, allocated once

	// flushMu serializes flush: the core's flush scratch has one user,
	// envelopes leave in the order they were staged, and the timer is
	// re-armed once per flush. It is always taken before mu, never while
	// holding it.
	flushMu sync.Mutex

	// rsc holds the receive scratch between receives. A receive takes it
	// out and puts it back when it returns, so the scratch has one user and
	// no lock is held across unpack, the ack's send or the handler. The
	// first receive, and one that overlaps another, makes its own.
	rsc atomic.Pointer[envScratch]

	obs *endpointObs // never nil; instruments are nil when cfg.Obs is nil
}

// NewEndpoint wires a reliable endpoint over messenger m with outbox box.
// It registers itself as m's receive handler and as an online handler, so a
// reconnect resets retry backoff and replays the outbox without waiting for
// the next flush tick.
func NewEndpoint(m Messenger, box *store.Outbox, clk vclock.Clock, cfg EndpointConfig) *Endpoint {
	if cfg.RetryAfter == 0 {
		cfg.RetryAfter = 30 * time.Second
	}
	if cfg.BootID == "" {
		cfg.BootID = strconv.FormatInt(clk.Now().UnixNano(), 36)
	}
	local := m.LocalID()
	e := &Endpoint{
		m:    m,
		clk:  clk,
		core: newLink(box, local, cfg),
		obs:  newEndpointObs(cfg.Obs, local, cfg.Entity),
	}
	if l, ok := m.(lender); ok {
		e.lent = l.lendsPayloads()
	}
	e.retryFn = func() { e.flush(true) }
	m.OnReceive(e.receive)
	m.OnOnline(e.onReconnect)
	return e
}

// OnMessage sets the handler for deduplicated application messages; the
// payload is the message's validated encoding, a msg.Raw. It replaces any
// handler OnMessageTraced set.
func (e *Endpoint) OnMessage(fn func(from, channel string, payload msg.Value)) {
	e.OnMessageTraced(func(from, channel string, payload msg.Raw, _ obs.TraceID) { fn(from, channel, payload) })
}

// OnMessageTraced sets the delivery handler, which also receives the
// message's wire-propagated trace ID (0 from an untraced peer). It replaces
// any handler OnMessage set.
func (e *Endpoint) OnMessageTraced(fn func(from, channel string, payload msg.Raw, trace obs.TraceID)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handler = fn
}

// BootID returns the identity of this process lifetime that the endpoint's
// envelopes carry (EndpointConfig.BootID).
func (e *Endpoint) BootID() string { return e.core.boot }

// Stats returns a snapshot of the endpoint's counters.
func (e *Endpoint) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.core.stats
}

// Pending returns the number of buffered, unacknowledged messages.
func (e *Endpoint) Pending() int { return e.core.box.Len() }

// OnWire registers an observer of the endpoint's own wire traffic (payload
// bytes handed to / received from the messenger). The tail detector uses it
// to discount Pogo's own transmissions from the traffic counters.
func (e *Endpoint) OnWire(fn func(sentBytes, recvBytes int64)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.onWire = fn
}

// onReconnect makes every inflight entry immediately eligible for
// retransmission and replays the outbox.
func (e *Endpoint) onReconnect() {
	e.mu.Lock()
	e.core.reconnect()
	e.mu.Unlock()
	e.Flush()
}

// Enqueue buffers a message for peer `to` on the given channel. The message
// is durable (subject to MaxAge) until acknowledged; call Flush — or attach
// a flush policy in core — to move it. A msg.Raw is kept as it is; any other
// value is encoded first (msg.Encode).
func (e *Endpoint) Enqueue(to, channel string, payload msg.Value) error {
	r, ok := payload.(msg.Raw)
	if !ok {
		var err error
		if r, err = msg.Encode(payload); err != nil {
			return fmt.Errorf("transport: encode: %w", err)
		}
	}
	return e.EnqueuePublication(to, channel, r, 0, 0)
}

// EnqueuePublication is Enqueue for an encoded message that continues the
// trace of local publication number pub (a relayed publication), trace: the
// envelope carries the number, and the receiver derives the trace from it,
// this endpoint's id and its boot, so trace must be
// obs.PublicationsOf(this endpoint's id, BootID()).Trace(pub). pub 0 means
// "originates here": the entry travels under its root trace and trace is
// ignored. The outbox keeps the message's
// bytes themselves: enqueueing copies nothing.
func (e *Endpoint) EnqueuePublication(to, channel string, r msg.Raw, pub uint64, trace obs.TraceID) error {
	if r.IsZero() {
		return errors.New("transport: enqueue: no message")
	}
	now := e.clk.Now()
	e.mu.Lock()
	before := e.core.stats
	id, err := e.core.enqueue(now, to, channel, r.Bytes(), relayed{pub, trace})
	var span obs.TraceID
	if err == nil && e.obs.tracing() {
		span, _ = e.core.traceFor(id)
	}
	after := e.core.stats
	e.mu.Unlock()
	e.obs.count(before, after)
	if err != nil {
		return err
	}
	if span != 0 {
		e.obs.span(now, span, obs.StageEnqueue, channel, id, "to="+to)
	}
	return nil
}

// Flush attempts delivery of every eligible buffered message, batched into
// one envelope per destination. It returns the number of data messages
// handed to the messenger.
func (e *Endpoint) Flush() int { return e.flush(false) }

// flush implements Flush; retryOnly is the self-driven retransmission timer,
// which leaves entries never yet transmitted to the flush policy (§4.7: the
// policy owns the energy trade-off). The outbox's purge, encoding and sends
// happen outside mu.
// A messenger may deliver the peer's ack before Send returns, and the core
// then finds the inflight record already gone when it books the send.
func (e *Endpoint) flush(retryOnly bool) int {
	now := e.clk.Now()
	online := e.m.Online()
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	expired := e.core.expire(now)
	e.mu.Lock()
	before := e.core.stats
	expTraces := e.core.purge(expired)
	if online {
		e.core.stage(now, retryOnly)
	}
	after := e.core.stats
	onWire := e.onWire
	e.mu.Unlock()
	e.obs.count(before, after)
	if e.obs.tracing() {
		for i, entry := range expired {
			e.obs.span(now, expTraces[i], obs.StageExpire, entry.Channel, entry.ID, "to="+entry.To)
		}
	}
	if !online {
		return 0
	}
	out := e.core.encode()

	// One booking loop for both kinds of messenger: a BatchSender takes the
	// whole flush and reports the accepted prefix; a plain Send refuses only
	// its own destination.
	accepted := len(out)
	bs, batched := e.m.(BatchSender)
	if batched && len(out) > 0 {
		accepted, _ = bs.SendBatch(out)
	}
	sent := 0
	for i := range out {
		ok := i < accepted
		if !batched {
			ok = e.m.Send(out[i].To, out[i].Payload) == nil
		}
		e.mu.Lock()
		before := e.core.stats
		e.core.settle(now, i, ok)
		after := e.core.stats
		e.mu.Unlock()
		e.obs.count(before, after)
		if !ok {
			e.obs.sendErrors.Inc()
			continue
		}
		sent += e.recordSent(now, i, onWire)
	}

	// Re-arm the one timer at the exact head of the deadline queue, after
	// every flush: simulated runs order same-instant events by arming order,
	// so a timer that merely fired "no later than" the deadline would change
	// them. Without it an endpoint whose flush policy has gone quiet would
	// never retransmit a lost batch.
	e.mu.Lock()
	defer e.mu.Unlock()
	due, ok := e.core.nextDeadline()
	if !ok {
		if e.retryTimer != nil {
			e.retryTimer.Stop()
		}
		return sent
	}
	e.retryTimer = vclock.Rearm(e.clk, e.retryTimer, max(due.Sub(now), time.Millisecond), e.retryFn)
	return sent
}

// putScratch returns a receive's scratch to the endpoint, with no view of
// the payload it held.
func (e *Endpoint) putScratch(sc *envScratch) {
	sc.release()
	e.rsc.Store(sc)
}

// recordSent instruments staged envelope i, which the messenger accepted:
// the wire observer, ledger charges, histograms, and a send span per entry.
// It returns the number of data entries the envelope carried.
func (e *Endpoint) recordSent(now time.Time, i int, onWire func(int64, int64)) int {
	sc := &e.core.fsc
	dm := sc.dests[i]
	entries := sc.elig[dm.elig0:dm.elig1]
	attempts := sc.attempts[dm.elig0:dm.elig1]
	wireLen := int64(len(sc.out[i].Payload))
	if onWire != nil {
		onWire(wireLen, 0)
	}
	e.obs.deviceMeter.AddUplink(wireLen)
	for k := range entries {
		e.obs.chargeChannel(entries[k].Channel, int64(len(entries[k].Payload)))
	}
	if len(entries) > 0 {
		e.obs.batchSize.Observe(float64(len(entries)))
	}
	for k := range entries {
		e.obs.queueDelay.Observe(now.Sub(entries[k].Enqueued()).Seconds())
	}
	if e.obs.tracing() {
		for k := range entries {
			e.obs.span(now, sc.traces[dm.elig0+k], obs.StageSend, entries[k].Channel, entries[k].ID,
				"to="+dm.name+" attempt="+strconv.Itoa(attempts[k]))
		}
	}
	return len(entries)
}

// receive handles an inbound payload: the core unpacks it (outside mu, like
// a flush's purge and encoding: it touches no core state), then orders and
// acks it, and the driver instruments the outcome, sends the ack and hands
// each deliverable message to the handler. The scratch keeps no view of the
// payload past the call.
func (e *Endpoint) receive(from string, payload []byte) {
	sc := e.rsc.Swap(nil)
	if sc == nil {
		sc = new(envScratch)
	}
	defer e.putScratch(sc)
	e.core.unpack(from, payload, sc, e.lent)
	e.mu.Lock()
	before := e.core.stats
	e.core.receive(from, sc)
	after := e.core.stats
	handler, onWire := e.handler, e.onWire
	e.mu.Unlock()
	e.obs.count(before, after)
	if onWire != nil {
		onWire(0, int64(len(payload)))
	}
	e.obs.bytesRecv.Add(int64(len(payload)))
	e.obs.deviceMeter.AddDownlink(int64(len(payload)))
	for _, item := range sc.deliver {
		e.obs.chargeChannel(item.Channel, -int64(len(item.Body)))
	}
	if e.obs.tracing() {
		at := e.clk.Now()
		for _, item := range sc.deliver {
			e.obs.span(at, obs.TraceID(item.Trace), obs.StageDeliver, item.Channel, item.ID, "from="+from)
		}
	}
	if len(sc.wire) > 0 && e.m.Send(from, sc.wire) == nil {
		if onWire != nil {
			onWire(int64(len(sc.wire)), 0)
		}
		e.obs.ackBytes.Add(int64(len(sc.wire)))
	}
	if handler == nil {
		return
	}
	for i, item := range sc.deliver {
		if !sc.msgs[i].IsZero() {
			handler(from, item.Channel, sc.msgs[i], obs.TraceID(item.Trace))
		}
	}
}
