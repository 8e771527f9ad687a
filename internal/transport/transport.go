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
//   - every payload is CRC32-framed, so a byte flipped in flight is detected
//     even when the corrupted bytes still parse as an envelope;
//   - unacked entries retransmit with capped exponential backoff, and a
//     reconnect resets the backoff and replays the outbox immediately;
//   - each entry carries a per-(destination, channel) sequence number; the
//     receiver holds out-of-order arrivals back and delivers each channel in
//     FIFO order, exactly once;
//   - envelopes carry per-channel floors (the lowest sequence still live in
//     the sender's outbox) so the receiver can skip gaps left by the max-age
//     purge or a pre-reboot ack instead of stalling forever.
//
// A flush costs what it sends, not what is pending. It selects under the
// endpoint lock, against the live outbox: on a policy flush the entries past
// a send cursor (everything enqueued since the last one) and the entries the
// messenger refused last time; on every flush the inflight entries at the
// head of a deadline queue whose backoff has run out. The same queue's head
// is the instant the retransmission timer is armed for, and the outbox
// answers the floors from its own per-channel bookkeeping — no step looks
// at an entry the flush does not send.
//
// Two Messenger implementations are provided: a real XMPP client adapter
// (xmppnet.go) used by the cmd/ binaries, and an in-memory adapter of the
// same switchboard core (memnet.go) whose deliveries traverse the simulated
// radios — so every byte a simulated device sends or receives costs modem
// energy and moves the traffic counters the tail detector watches.
package transport

import (
	"cmp"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"strconv"
	"strings"
	"sync"
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
	// OnReceive registers the single inbound payload handler.
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

// TraceSender is optionally implemented by messengers that can carry trace
// context outside the opaque payload (the XMPP adapter stamps the stanza's
// t attribute so the switchboard can record route/offline/replay hops
// without parsing envelopes). traces holds the batch's trace IDs in item
// order; zero entries are untraced.
type TraceSender interface {
	SendTraced(to string, payload []byte, traces []obs.TraceID) error
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
// Implementations must copy any payload they retain: the buffers are pooled
// and reused as soon as SendBatch returns.
type BatchSender interface {
	SendBatch(batch []Outgoing) (int, error)
}

// envelope is one decoded switchboard payload: a batch of data messages
// and/or a set of acknowledgements (wire layout in wirecodec.go).
type envelope struct {
	From string
	// Boot identifies the sender's process lifetime. Message IDs restart
	// after a reboot (fresh outbox), so the receiver resets its dedup state
	// for the sender whenever Boot changes.
	Boot  string
	Batch []envelopeItem
	Ack   []uint64
	// Floors maps channel → the lowest sequence number still live in the
	// sender's outbox for that channel (or the next sequence to be assigned
	// when the channel drained). The receiver uses it to skip sequence gaps
	// left by the max-age purge or by acks that predate its own reboot.
	Floors map[string]uint64
}

type envelopeItem struct {
	ID      uint64
	Seq     uint64
	Channel string
	Trace   uint64 // the message's causal trace ID (obs.TraceID), 0 when untraced
	Body    []byte // msg binary codec
}

// unframe verifies and strips the CRC32 header. The hex header is parsed by
// hand: strconv.ParseUint would force a string conversion (one allocation
// per inbound payload) for eight fixed-position digits.
func unframe(b []byte) ([]byte, error) {
	if len(b) < 9 || b[8] != ':' {
		return nil, errors.New("transport: malformed frame")
	}
	var want uint32
	for _, c := range b[:8] {
		var d uint32
		switch {
		case c >= '0' && c <= '9':
			d = uint32(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint32(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint32(c-'A') + 10
		default:
			return nil, errors.New("transport: bad frame header")
		}
		want = want<<4 | d
	}
	body := b[9:]
	if crc32.ChecksumIEEE(body) != want {
		return nil, errors.New("transport: checksum mismatch")
	}
	return body, nil
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
	CorruptDropped   int // inbound payloads rejected by the CRC32 frame check
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
	// retryMaxFactor × RetryAfter. Default 30 s.
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
	// TraceSeed seeds the deterministic trace-ID derivation for messages
	// originated at this endpoint (obs.NewTraceID(TraceSeed, localID,
	// outboxID)). Trace assignment is independent of Obs — the wire bytes
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

// chanOrder is the receiver's FIFO state for one (sender, channel) pair:
// out-of-order arrivals wait in hold until the gap before them fills (or the
// sender's floor reveals the gap will never fill).
type chanOrder struct {
	next  uint64 // lowest sequence not yet delivered
	floor uint64 // sender's advertised floor: nothing below is still live
	hold  map[uint64]envelopeItem
}

// drainInto appends the items deliverable in FIFO order to out, advancing
// past floor-certified gaps. Held items below the floor (acked on arrival,
// then purged at the sender while waiting for ordering) are still delivered
// — skipping them would turn a reorder into a loss. The out slice is
// caller-recycled scratch (receive's envScratch), so steady-state delivery
// allocates nothing here.
func (c *chanOrder) drainInto(out []envelopeItem) []envelopeItem {
	for {
		if it, ok := c.hold[c.next]; ok {
			delete(c.hold, c.next)
			c.next++
			out = append(out, it)
			continue
		}
		if c.next >= c.floor {
			return out
		}
		skip := c.floor
		for s := range c.hold {
			if s >= c.next && s < skip {
				skip = s
			}
		}
		c.next = skip
	}
}

// peerState is everything the receiver remembers about one sender.
type peerState struct {
	boot  string
	chans map[string]*chanOrder
}

// Endpoint is the reliable batching layer of one node. The zero value is
// not usable; construct with NewEndpoint. All methods are goroutine-safe.
type Endpoint struct {
	m   Messenger
	clk vclock.Clock
	box *store.Outbox
	cfg EndpointConfig

	mu         sync.Mutex
	onMessage  func(from, channel string, payload msg.Value)
	onTraced   func(from, channel string, payload msg.Value, trace obs.TraceID)
	onWire     func(sentBytes, recvBytes int64)
	peers      map[string]*peerState
	nextSeq    map[string]map[string]uint64 // dest → channel → next FIFO sequence
	traceOf    map[uint64]obs.TraceID       // outbox id → inherited (relayed) trace; roots are derived
	dirty      map[string]map[string]bool   // dest → channels whose floor moved by expiry
	retryTimer vclock.Timer                 // pending self-driven retransmission, if any
	retryFn    func()                       // the timer's callback, allocated once
	stats      Stats

	// What a flush sends, kept so that selecting it costs the entries it
	// picks, never the backlog: entries past cursor have not been picked up
	// yet (policy flushes advance it), refused ones were picked up but the
	// messenger would not take them (the next policy flush tries again), and
	// inflight ones wait in retryq for their retransmission deadline.
	cursor   uint64
	refused  []uint64
	inflight map[uint64]*sendState
	retryq   deadlineQueue
	free     []*sendState // recycled inflight records

	// flushMu serializes flush so its recycled scratch (fsc) has a single
	// writer. It is always taken before e.mu, never while holding it.
	flushMu sync.Mutex
	fsc     flushScratch

	obs *endpointObs // never nil; instruments are nil when cfg.Obs is nil
}

// destMeta locates one flush destination's state inside flushScratch's flat
// arrays: eligible entries (and their traces) in [elig0,elig1), floor pairs
// in [fl0,fl1).
type destMeta struct {
	name         string
	elig0, elig1 int
	fl0, fl1     int
}

// flushScratch is flush's recycled working set. One flush per endpoint runs
// at a time (flushMu), so the same slices carry every flush and steady-state
// flushing allocates nothing: no per-flush maps, no per-destination slices.
type flushScratch struct {
	elig     []store.Entry  // the entries this flush sends, grouped per dest
	traces   []obs.TraceID  // parallel to elig
	attempts []int          // parallel to elig: transmissions before this one
	batch    []envelopeItem // envelope batch under construction
	floorCh  []string       // floor channel/seq pairs, grouped per dest
	floorSeq []uint64
	dests    []destMeta
	out      []Outgoing // coalesced-send staging (BatchSender path), parallel to dests
	outBufs  []*[]byte
}

// sortFloorPairs orders a destination's floor entries by channel in place —
// the deterministic-bytes contract of the envelope encoder — without the
// allocations of a sort.Interface shim. Channel lists are tiny.
func sortFloorPairs(ch []string, seq []uint64) {
	for i := 1; i < len(ch); i++ {
		for j := i; j > 0 && ch[j] < ch[j-1]; j-- {
			ch[j], ch[j-1] = ch[j-1], ch[j]
			seq[j], seq[j-1] = seq[j-1], seq[j]
		}
	}
}

// setSeqLocked stores dest/channel's next FIFO sequence. The two-level map
// makes the hot-path read (e.nextSeq[to][channel], nil-safe) allocation-free
// where a concatenated "to\x00channel" key would cost a string per enqueue.
func (e *Endpoint) setSeqLocked(to, channel string, next uint64) {
	if e.nextSeq == nil {
		e.nextSeq = make(map[string]map[string]uint64)
	}
	inner := e.nextSeq[to]
	if inner == nil {
		inner = make(map[string]uint64)
		e.nextSeq[to] = inner
	}
	inner[channel] = next
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
	// The five bookkeeping maps are allocated lazily at their write sites:
	// reads of a nil map are legal, and a fleet-scale experiment holds
	// hundreds of thousands of endpoints whose phones never receive, never
	// relay traces, and never purge — their maps would be pure overhead.
	e := &Endpoint{
		m:   m,
		clk: clk,
		box: box,
		cfg: cfg,
		obs: newEndpointObs(cfg.Obs, m.LocalID(), cfg.Entity),
	}
	e.retryFn = func() { e.flush(true) }
	// Recover the per-channel sequence counters from the replayed outbox so
	// post-reboot enqueues continue the FIFO where the last boot left it.
	for _, entry := range box.Pending() {
		if entry.Seq >= e.nextSeq[entry.To][entry.Channel] {
			e.setSeqLocked(entry.To, entry.Channel, entry.Seq+1)
		}
	}
	m.OnReceive(e.receive)
	m.OnOnline(e.onReconnect)
	return e
}

// Messenger returns the underlying messenger.
func (e *Endpoint) Messenger() Messenger { return e.m }

// OnMessage sets the handler for deduplicated application messages.
func (e *Endpoint) OnMessage(fn func(from, channel string, payload msg.Value)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.onMessage = fn
}

// OnMessageTraced sets a delivery handler that additionally receives the
// message's wire-propagated trace ID (0 from an untraced peer). When set it
// takes precedence over OnMessage.
func (e *Endpoint) OnMessageTraced(fn func(from, channel string, payload msg.Value, trace obs.TraceID)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.onTraced = fn
}

// traceForLocked returns the trace ID that travels with outbox entry id:
// the inherited trace when this endpoint is relaying someone else's message
// (proxy subscriptions), otherwise the deterministic root ID derived from
// (TraceSeed, local id, outbox id). Outbox IDs are persisted and monotonic,
// so a rebooted endpoint re-derives the same roots for replayed entries
// without storing anything. Caller holds e.mu.
func (e *Endpoint) traceForLocked(id uint64) obs.TraceID {
	if t, ok := e.traceOf[id]; ok {
		return t
	}
	// The messenger's LocalID, not e.obs.node: the no-registry path shares
	// one blank endpointObs across all endpoints.
	return obs.NewTraceID(e.cfg.TraceSeed, e.m.LocalID(), id)
}

// Stats returns a snapshot of the endpoint's counters.
func (e *Endpoint) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Pending returns the number of buffered, unacknowledged messages.
func (e *Endpoint) Pending() int { return e.box.Len() }

// OnWire registers an observer of the endpoint's own wire traffic (payload
// bytes handed to / received from the messenger). The tail detector uses it
// to discount Pogo's own transmissions from the traffic counters.
func (e *Endpoint) OnWire(fn func(sentBytes, recvBytes int64)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.onWire = fn
}

func (e *Endpoint) notifyWire(sent, recv int64) {
	e.mu.Lock()
	fn := e.onWire
	e.mu.Unlock()
	if fn != nil {
		fn(sent, recv)
	}
}

// onReconnect makes every inflight entry immediately eligible for
// retransmission (a fresh session voids the old backoff timers — anything
// unacked may have died with the stale connection) and replays the outbox.
func (e *Endpoint) onReconnect() {
	e.mu.Lock()
	// Every deadline becomes the same instant, and a heap of equal keys is
	// in order wherever its elements sit: retryq needs no fixing up.
	for _, st := range e.inflight {
		st.due = time.Time{}
	}
	e.mu.Unlock()
	e.Flush()
}

// trackLocked starts an inflight record for outbox entry id: picked up by
// the running flush, first transmission pending. Caller holds e.mu.
func (e *Endpoint) trackLocked(id uint64) {
	var st *sendState
	if n := len(e.free); n > 0 {
		st, e.free = e.free[n-1], e.free[:n-1]
	} else {
		st = new(sendState)
	}
	*st = sendState{id: id, pos: -1}
	if e.inflight == nil {
		e.inflight = make(map[uint64]*sendState)
	}
	e.inflight[id] = st
}

// forgetLocked drops id's inflight record, if any (acked, expired, or handed
// back by the messenger). Caller holds e.mu.
func (e *Endpoint) forgetLocked(id uint64) {
	st := e.inflight[id]
	if st == nil {
		return
	}
	if st.pos >= 0 {
		e.retryq.remove(st)
	}
	delete(e.inflight, id)
	e.free = append(e.free, st)
}

// retryMaxFactor caps the exponential retransmission backoff at this many
// RetryAfters.
const retryMaxFactor = 8

// retryWait returns the backoff before retransmission attempt attempts+1:
// RetryAfter doubling per attempt, capped at retryMaxFactor × RetryAfter.
func (e *Endpoint) retryWait(attempts int) time.Duration {
	wait, limit := e.cfg.RetryAfter, retryMaxFactor*e.cfg.RetryAfter
	for i := 1; i < attempts && wait < limit; i++ {
		wait *= 2
	}
	if wait > limit {
		wait = limit
	}
	return wait
}

// Enqueue buffers a message for peer `to` on the given channel. The message
// is durable (subject to MaxAge) until acknowledged; call Flush — or attach
// a flush policy in core — to move it. The body is encoded into pooled
// scratch (the outbox keeps its own copy), so steady-state enqueues generate
// no wire-encoding garbage.
func (e *Endpoint) Enqueue(to, channel string, payload msg.Value) error {
	return e.EnqueueTraced(to, channel, payload, 0)
}

// EnqueueTraced is Enqueue for a message that continues an existing causal
// trace (a relayed publication): the inherited trace ID travels in this
// entry's wire envelope instead of a freshly derived root. trace 0 means
// "originates here" and derives the root ID.
func (e *Endpoint) EnqueueTraced(to, channel string, payload msg.Value, trace obs.TraceID) error {
	bp := getWireBuf()
	b, err := msg.AppendBinary((*bp)[:0], payload)
	if err != nil {
		putWireBuf(bp, nil)
		return fmt.Errorf("transport: encode: %w", err)
	}
	now := e.clk.Now()
	e.mu.Lock()
	seq := e.nextSeq[to][channel]
	id, err := e.box.Add(to, channel, seq, b, now) // Add copies the payload
	putWireBuf(bp, b)
	if err != nil {
		e.mu.Unlock()
		return fmt.Errorf("transport: enqueue: %w", err)
	}
	e.setSeqLocked(to, channel, seq+1)
	e.stats.MessagesEnqueued++
	if trace != 0 {
		if e.traceOf == nil {
			e.traceOf = make(map[uint64]obs.TraceID)
		}
		e.traceOf[id] = trace
	} else {
		trace = e.traceForLocked(id)
	}
	e.mu.Unlock()
	e.obs.enqueued.Inc()
	if e.obs.tracing() {
		e.obs.span(now, trace, obs.StageEnqueue, channel, id, "to="+to)
	}
	return nil
}

// Flush attempts delivery of every eligible buffered message, batched into
// one envelope per destination. It returns the number of data messages
// handed to the messenger.
func (e *Endpoint) Flush() int { return e.flush(false) }

// scheduleRetry arms a timer for the earliest retransmission deadline among
// sent-but-unacked entries. Without it, an endpoint whose flush policy has
// gone quiet (FlushImmediate with no new enqueues, say) would never
// retransmit a lost batch: backoff would be computed but nothing would ever
// fire it. The timer drives retransmissions only — first transmission stays
// with the flush policy, which owns the energy trade-off (§4.7). It is
// stopped and re-armed after every flush, at the exact head of the deadline
// queue: simulated runs order same-instant events by arming order, so a
// timer that merely fired "no later than" the deadline would change them.
func (e *Endpoint) scheduleRetry(now time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.retryTimer != nil {
		e.retryTimer.Stop()
		e.retryTimer = nil
	}
	if len(e.retryq) == 0 {
		return
	}
	delay := e.retryq[0].due.Sub(now)
	if delay < time.Millisecond {
		delay = time.Millisecond
	}
	e.retryTimer = e.clk.AfterFunc(delay, e.retryFn)
}

// purgeExpired applies the max-age policy and forgets everything the
// endpoint knew about the dropped entries.
func (e *Endpoint) purgeExpired(now time.Time) {
	dropped, err := e.box.PurgeExpired(now, e.cfg.MaxAge)
	if err != nil || len(dropped) == 0 {
		return
	}
	expTraces := make([]obs.TraceID, len(dropped))
	e.mu.Lock()
	e.stats.MessagesExpired += len(dropped)
	for i, entry := range dropped {
		// The purge moved the channel's floor; mark it so the next
		// envelope tells the receiver not to wait for the gap.
		if e.dirty == nil {
			e.dirty = make(map[string]map[string]bool)
		}
		if e.dirty[entry.To] == nil {
			e.dirty[entry.To] = make(map[string]bool)
		}
		e.dirty[entry.To][entry.Channel] = true
		e.forgetLocked(entry.ID)
		expTraces[i] = e.traceForLocked(entry.ID)
		delete(e.traceOf, entry.ID)
	}
	e.mu.Unlock()
	e.obs.expired.Add(int64(len(dropped)))
	if e.obs.tracing() {
		for i, entry := range dropped {
			e.obs.span(now, expTraces[i], obs.StageExpire, entry.Channel, entry.ID, "to="+entry.To)
		}
	}
}

// selectLocked gathers the entries this flush sends into sc.elig, ordered by
// (destination, ID), with their traces and prior attempt counts alongside:
// on a policy flush whatever the messenger refused last time and everything
// enqueued since the cursor, and on every flush the inflight entries whose
// backoff has elapsed. Selection reads the live outbox under e.mu — an ack
// cannot slip between "what is pending" and "what was already sent", so a
// sent entry is never mistaken for a new one. Caller holds e.mu.
func (e *Endpoint) selectLocked(sc *flushScratch, now time.Time, retryOnly bool) {
	elig := sc.elig[:0]
	if !retryOnly {
		for _, id := range e.refused {
			if entry, ok := e.box.Get(id); ok {
				elig = append(elig, entry)
			}
		}
		e.refused = e.refused[:0]
		elig = e.box.AppendAfter(elig, e.cursor)
		if n := len(elig); n > 0 && elig[n-1].ID > e.cursor {
			e.cursor = elig[n-1].ID
		}
		for i := range elig {
			e.trackLocked(elig[i].ID)
		}
	}
	for st := e.retryq.popDue(now); st != nil; st = e.retryq.popDue(now) {
		if entry, ok := e.box.Get(st.id); ok {
			elig = append(elig, entry)
		} else {
			e.forgetLocked(st.id) // acked a moment ago; receive is about to say so
		}
	}
	// One destination's entries in outbox-ID (FIFO) order, destinations
	// ascending: the envelope contents and the send order.
	slices.SortFunc(elig, func(a, b store.Entry) int {
		if c := strings.Compare(a.To, b.To); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	sc.elig = elig
	sc.traces = sc.traces[:0]
	sc.attempts = sc.attempts[:0]
	for i := range elig {
		sc.traces = append(sc.traces, e.traceForLocked(elig[i].ID))
		sc.attempts = append(sc.attempts, e.inflight[elig[i].ID].attempts)
	}
}

// appendFloorsLocked appends dest's floor pairs, sorted by channel, to the
// scratch: the lowest live sequence of every channel with entries buffered
// (all of them, not just the ones this flush sends), and for channels the
// purge drained entirely, the sequence the next enqueue would get. Caller
// holds e.mu.
func (e *Endpoint) appendFloorsLocked(sc *flushScratch, dest string) (fl0, fl1 int) {
	fl0 = len(sc.floorCh)
	sc.floorCh, sc.floorSeq = e.box.AppendFloors(dest, sc.floorCh, sc.floorSeq)
	for ch := range e.dirty[dest] {
		if !floorHas(sc.floorCh[fl0:], ch) {
			sc.floorCh = append(sc.floorCh, ch)
			sc.floorSeq = append(sc.floorSeq, e.nextSeq[dest][ch])
		}
	}
	fl1 = len(sc.floorCh)
	sortFloorPairs(sc.floorCh[fl0:fl1], sc.floorSeq[fl0:fl1])
	return fl0, fl1
}

// flush implements Flush. In retryOnly mode (the self-driven retransmission
// timer) entries never yet transmitted are left for the flush policy.
func (e *Endpoint) flush(retryOnly bool) int {
	now := e.clk.Now()
	e.purgeExpired(now)
	if !e.m.Online() {
		return 0
	}

	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	sc := &e.fsc
	sc.floorCh = sc.floorCh[:0]
	sc.floorSeq = sc.floorSeq[:0]
	sc.dests = sc.dests[:0]

	e.mu.Lock()
	e.selectLocked(sc, now, retryOnly)
	for i := 0; i < len(sc.elig); {
		dm := destMeta{name: sc.elig[i].To, elig0: i}
		for i < len(sc.elig) && sc.elig[i].To == dm.name {
			i++
		}
		dm.elig1 = i
		dm.fl0, dm.fl1 = e.appendFloorsLocked(sc, dm.name)
		sc.dests = append(sc.dests, dm)
	}
	// Destinations whose only business is a purge-moved floor.
	for dest, chans := range e.dirty {
		if len(chans) == 0 || destsHave(sc.dests, dest) {
			continue
		}
		dm := destMeta{name: dest, elig0: len(sc.elig), elig1: len(sc.elig)}
		dm.fl0, dm.fl1 = e.appendFloorsLocked(sc, dest)
		sc.dests = append(sc.dests, dm)
	}
	if !retryOnly {
		e.stats.Flushes++
	}
	e.mu.Unlock()
	// Deterministic send order: destinations ascending.
	slices.SortFunc(sc.dests, func(a, b destMeta) int { return strings.Compare(a.name, b.name) })
	if !retryOnly {
		e.obs.flushes.Inc()
	}

	sent := 0
	if bs, ok := e.m.(BatchSender); ok && len(sc.dests) > 0 {
		// Coalescing path: encode every destination's envelope up front,
		// hand the whole set to the messenger as one batch, then book the
		// accepted prefix. Buffers stay pooled; they are released only after
		// the batch returns.
		sc.out = sc.out[:0]
		sc.outBufs = sc.outBufs[:0]
		for _, dm := range sc.dests {
			wire, bp := e.encodeDest(sc, dm)
			sc.out = append(sc.out, Outgoing{To: dm.name, Payload: wire, Traces: sc.traces[dm.elig0:dm.elig1]})
			sc.outBufs = append(sc.outBufs, bp)
		}
		nOK, _ := bs.SendBatch(sc.out)
		if nOK > len(sc.out) {
			nOK = len(sc.out)
		}
		for i, dm := range sc.dests {
			if i < nOK {
				sent += e.finishDest(now, sc, dm, int64(len(sc.out[i].Payload)))
			} else {
				e.refuseDest(sc, dm)
			}
			putWireBuf(sc.outBufs[i], sc.out[i].Payload)
		}
	} else {
		for _, dm := range sc.dests {
			wire, bp := e.encodeDest(sc, dm)
			var err error
			// A trace-aware messenger (the XMPP adapter) gets the batch's
			// trace IDs alongside the payload so it can stamp them on the
			// stanza.
			if ts, ok := e.m.(TraceSender); ok && dm.elig1 > dm.elig0 {
				err = ts.SendTraced(dm.name, wire, sc.traces[dm.elig0:dm.elig1])
			} else {
				err = e.m.Send(dm.name, wire) // Send copies; the buffer is ours again
			}
			wireLen := int64(len(wire))
			putWireBuf(bp, wire)
			if err != nil {
				e.refuseDest(sc, dm)
				continue
			}
			sent += e.finishDest(now, sc, dm, wireLen)
		}
	}
	e.scheduleRetry(now)
	return sent
}

// floorHas reports whether ch already has a floor entry in this
// destination's span — a linear scan, since a destination rarely has more
// than a handful of channels.
func floorHas(chans []string, ch string) bool {
	for _, c := range chans {
		if c == ch {
			return true
		}
	}
	return false
}

func destsHave(dests []destMeta, name string) bool {
	for i := range dests {
		if dests[i].name == name {
			return true
		}
	}
	return false
}

// encodeDest builds and frames one destination's envelope into a pooled
// buffer. The caller owns the returned buffer handle and must release it
// with putWireBuf on every path.
func (e *Endpoint) encodeDest(sc *flushScratch, dm destMeta) ([]byte, *[]byte) {
	batch := sc.batch[:0]
	for k := dm.elig0; k < dm.elig1; k++ {
		entry := &sc.elig[k]
		batch = append(batch, envelopeItem{
			ID:      entry.ID,
			Seq:     entry.Seq,
			Channel: entry.Channel,
			Trace:   uint64(sc.traces[k]),
			Body:    entry.Payload,
		})
	}
	sc.batch = batch
	bp := getWireBuf()
	buf := append((*bp)[:0], frameHeader[:]...)
	buf = appendEnvelope(buf, e.m.LocalID(), e.cfg.BootID, batch, nil,
		sc.floorCh[dm.fl0:dm.fl1], sc.floorSeq[dm.fl0:dm.fl1])
	return frameInto(buf), bp
}

// refuseDest books an envelope the messenger would not take. Entries on
// their first transmission go back to being unsent — the next policy flush
// picks them up, the retry timer never does — and retransmissions return to
// the deadline queue with the deadline they already had.
func (e *Endpoint) refuseDest(sc *flushScratch, dm destMeta) {
	e.obs.sendErrors.Inc()
	e.mu.Lock()
	defer e.mu.Unlock()
	for k := dm.elig0; k < dm.elig1; k++ {
		id := sc.elig[k].ID
		st := e.inflight[id]
		switch {
		case st == nil: // acked or expired meanwhile
		case st.attempts == 0:
			e.forgetLocked(id)
			e.refused = append(e.refused, id)
		default:
			e.retryq.push(st)
		}
	}
}

// finishDest books a successfully handed-off envelope: inflight state,
// stats, counters, ledger charges, and trace spans for every entry it
// carried. Returns the number of data entries sent.
func (e *Endpoint) finishDest(now time.Time, sc *flushScratch, dm destMeta, wireLen int64) int {
	entries := sc.elig[dm.elig0:dm.elig1]
	traces := sc.traces[dm.elig0:dm.elig1]
	attempts := sc.attempts[dm.elig0:dm.elig1]
	e.notifyWire(wireLen, 0)
	retries := 0
	e.mu.Lock()
	for i := range entries {
		if attempts[i] > 0 {
			retries++
		}
		attempts[i]++
		// A missing record means the ack overtook this bookkeeping: the
		// entry is done, and nothing must bring it back.
		if st := e.inflight[entries[i].ID]; st != nil {
			st.attempts = attempts[i]
			st.due = now.Add(e.retryWait(st.attempts))
			e.retryq.push(st)
		}
	}
	delete(e.dirty, dm.name)
	e.stats.MessagesSent += len(entries)
	e.stats.Retries += retries
	e.stats.BytesSent += wireLen
	e.mu.Unlock()
	e.obs.sent.Add(int64(len(entries)))
	e.obs.retries.Add(int64(retries))
	e.obs.bytesSent.Add(wireLen)
	e.obs.deviceMeter.AddUplink(wireLen)
	for i := range entries {
		e.obs.chargeChannel(entries[i].Channel, int64(len(entries[i].Payload)))
	}
	if len(entries) > 0 {
		e.obs.batchSize.Observe(float64(len(entries)))
	}
	for i := range entries {
		e.obs.queueDelay.Observe(now.Sub(entries[i].Enqueued()).Seconds())
	}
	if e.obs.tracing() {
		for i := range entries {
			e.obs.span(now, traces[i], obs.StageSend, entries[i].Channel, entries[i].ID,
				"to="+dm.name+" attempt="+strconv.Itoa(attempts[i]))
		}
	}
	return len(entries)
}

// receive handles an inbound envelope: verify the frame, apply acks and
// floors, order fresh data messages per channel, and ack the batch.
func (e *Endpoint) receive(from string, payload []byte) {
	e.notifyWire(0, int64(len(payload)))
	e.obs.bytesRecv.Add(int64(len(payload)))
	e.obs.deviceMeter.AddDownlink(int64(len(payload)))
	body, err := unframe(payload)
	if err != nil {
		// Corrupted in flight: drop, the sender will retransmit.
		e.mu.Lock()
		e.stats.CorruptDropped++
		e.mu.Unlock()
		e.obs.corruptDropped.Inc()
		return
	}
	sc := envScratchPool.Get().(*envScratch)
	defer envScratchPool.Put(sc)
	env, err := decodeEnvelope(body, sc)
	if err != nil {
		e.mu.Lock()
		e.stats.CorruptDropped++
		e.mu.Unlock()
		e.obs.corruptDropped.Inc()
		return
	}
	if len(env.Ack) > 0 {
		e.box.Ack(env.Ack...)
		e.mu.Lock()
		for _, id := range env.Ack {
			e.forgetLocked(id)
			delete(e.traceOf, id)
		}
		e.stats.MessagesAcked += len(env.Ack)
		e.mu.Unlock()
		e.obs.acked.Add(int64(len(env.Ack)))
	}
	if len(env.Batch) == 0 && len(env.Floors) == 0 {
		return
	}
	sender := env.From
	if sender == "" {
		sender = from
	}

	e.mu.Lock()
	ps := e.peers[sender]
	if ps == nil || (env.Boot != "" && ps.boot != env.Boot) {
		// First contact, or the peer rebooted: its IDs and sequences may
		// have restarted, so any previous state for it is stale. The
		// envelope's floors re-anchor the FIFO cursors.
		ps = &peerState{
			boot:  env.Boot,
			chans: make(map[string]*chanOrder),
		}
		if e.peers == nil {
			e.peers = make(map[string]*peerState)
		}
		e.peers[sender] = ps
	}
	order := func(ch string) *chanOrder {
		c := ps.chans[ch]
		if c == nil {
			c = &chanOrder{hold: make(map[uint64]envelopeItem)}
			ps.chans[ch] = c
		}
		return c
	}
	// touched collects the channels whose state moved, with linear dedup —
	// an envelope rarely spans more than a few channels, and the recycled
	// slice keeps the hot path allocation-free.
	touched := sc.touched[:0]
	for ch, f := range env.Floors {
		c := order(ch)
		if f > c.floor {
			c.floor = f
		}
		if !floorHas(touched, ch) {
			touched = append(touched, ch)
		}
	}
	dups := 0
	ackIDs := sc.ackIDs[:0]
	for _, item := range env.Batch {
		ackIDs = append(ackIDs, item.ID)
		c := order(item.Channel)
		_, held := c.hold[item.Seq]
		// The cursor is the dedup state: an item that ever arrived is either
		// still held or was delivered, which moved next past its Seq.
		if held || item.Seq < c.next {
			e.stats.Duplicates++
			dups++
			continue
		}
		c.hold[item.Seq] = item // the hold map copies item; scratch-safe
		if !floorHas(touched, item.Channel) {
			touched = append(touched, item.Channel)
		}
	}
	sc.ackIDs = ackIDs
	sortStrings(touched)
	sc.touched = touched
	deliver := sc.deliver[:0]
	for _, ch := range touched {
		deliver = ps.chans[ch].drainInto(deliver)
	}
	sc.deliver = deliver
	e.stats.MessagesReceived += len(deliver)
	handler := e.onMessage
	handlerT := e.onTraced
	e.mu.Unlock()
	e.obs.duplicates.Add(int64(dups))
	e.obs.received.Add(int64(len(deliver)))
	for _, item := range deliver {
		e.obs.chargeChannel(item.Channel, -int64(len(item.Body)))
	}
	if e.obs.tracing() {
		at := e.clk.Now()
		for _, item := range deliver {
			e.obs.span(at, obs.TraceID(item.Trace), obs.StageDeliver, item.Channel, item.ID, "from="+sender)
		}
	}

	// Ack immediately; acks are fire-and-forget (a lost ack means a
	// retransmission, which dedup absorbs). Held items are acked too — the
	// sender's job is done once they arrive; ordering is receiver-local.
	if len(ackIDs) > 0 {
		bp := getWireBuf()
		buf := append((*bp)[:0], frameHeader[:]...)
		wire := frameInto(appendEnvelope(buf, e.m.LocalID(), e.cfg.BootID, nil, ackIDs, nil, nil))
		if e.m.Send(sender, wire) == nil {
			e.notifyWire(int64(len(wire)), 0)
			e.obs.ackBytes.Add(int64(len(wire)))
		}
		putWireBuf(bp, wire)
	}

	if handler == nil && handlerT == nil {
		return
	}
	for _, item := range deliver {
		// DecodeFrozen hands the application a pre-frozen map whose strings
		// alias the receive buffer: the broker's zero-copy fanout starts at
		// the wire, with no defensive clone in between.
		v, err := msg.DecodeFrozen(item.Body)
		if err != nil {
			continue
		}
		if handlerT != nil {
			handlerT(sender, item.Channel, v, obs.TraceID(item.Trace))
		} else {
			handler(sender, item.Channel, v)
		}
	}
}
