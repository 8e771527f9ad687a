// Package pubsub implements Pogo's topic-based publish/subscribe framework
// (§4.3 of the paper).
//
// Components — sensors, scripts, and (via proxy subscriptions created by the
// core) remote nodes — publish messages on named channels and subscribe to
// channels with optional parameter objects. Two features beyond a plain
// broker carry the paper's design:
//
//   - Subscriptions can be released and renewed (the RogueFinder pattern in
//     Listing 2), and carry a parameter object (e.g. {interval: 60000}).
//   - Publishers can observe the set of active subscriptions on their
//     channels, so a sensor can power itself down when nobody is listening
//     and pick the cheapest schedule that satisfies all listeners (§3.5).
//
// Delivery is synchronous on the publisher's goroutine, which keeps the
// discrete-event simulation deterministic; the scheduler layer (internal/
// sched) introduces asynchrony where the paper requires it.
package pubsub

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pogo/internal/msg"
	"pogo/internal/obs"
)

// Event is a delivered publication.
type Event struct {
	// Channel the message was published on.
	Channel string
	// Message payload: the publication's canonical encoding, the SAME bytes
	// for every subscriber and for the wire, so fanout copies nothing. Read
	// it in place (msg.Get, msg.GetNumber, Raw.Field); a handler that wants
	// a tree to write builds one (Raw.Map).
	Message msg.Raw
	// Params of the subscription the event is being delivered to. Shared
	// with the subscription: read-only.
	Params msg.Map
	// Origin identifies the remote node the message came from, or "" for a
	// local publication. The core fills this in for messages that crossed
	// the network boundary so collector scripts can distinguish devices.
	Origin string
	// Trace is the message's causal trace ID: assigned at local publish
	// (when the broker has a trace identity), inherited from the wire for
	// remote-originated fanout, 0 when untraced.
	Trace obs.TraceID
	// Pub is a local publication's number on its node's publication
	// counter, from which Trace derives (obs.PublicationTrace(node, Pub));
	// 0 when the event has no such number (remote-originated or untraced).
	// Proxy subscriptions hand it to the transport, which sends the number
	// and lets the receiver derive the trace, so the trace survives the hop.
	Pub uint64
}

// Handler consumes events for one subscription.
type Handler func(Event)

// SubscriptionInfo is a read-only view of an active subscription, as exposed
// to publishers (sensors) deciding whether and how fast to sample.
type SubscriptionInfo struct {
	Channel string
	Params  msg.Map
}

// Broker is a goroutine-safe topic-based message broker. The zero value is
// not usable; construct with New.
type Broker struct {
	mu       sync.Mutex
	subs     map[string][]*Subscription // channel → subscriptions (active and inactive)
	snap     map[string][]*Subscription // publish-path snapshot cache, see snapshot()
	watchers map[int]*watcher
	nextID   int
	obs      *brokerObs // nil until Instrument

	// Trace identity (SetTraceIdentity). Assignment is deliberately
	// independent of obs: publication numbers ride the wire, so they must
	// be identical whether or not a registry is attached.
	traceNode string
	pubs      *atomic.Uint64 // the node's publication counter; nil: untraced
}

// brokerObs bundles the broker's instruments; all fields are nil-safe.
type brokerObs struct {
	node       string
	entity     string
	now        func() time.Time
	publishes  *obs.Counter
	deliveries *obs.Counter
	freezeHits *obs.Counter
	fanout     *obs.Histogram
	active     *obs.Gauge
	spans      *obs.SpanStore
	ledger     *obs.Ledger
}

// Instrument attaches the broker to a metrics registry. node labels the
// metrics; entity is the ledger device axis that per-topic message counts
// are charged to (usually the node ID); now supplies trace timestamps (the
// owning node's clock, so simulated runs trace deterministically). Safe to
// call at most once, before traffic flows.
func (b *Broker) Instrument(reg *obs.Registry, now func() time.Time, node, entity string) {
	if reg == nil || now == nil {
		return
	}
	o := &brokerObs{
		node:       node,
		entity:     entity,
		now:        now,
		publishes:  reg.Counter("pubsub_publishes_total", obs.L("node", node)),
		deliveries: reg.Counter("pubsub_deliveries_total", obs.L("node", node)),
		freezeHits: reg.Counter("msg_freeze_hits", obs.L("node", node)),
		fanout:     reg.Histogram("pubsub_fanout_subscribers", obs.CountBuckets, obs.L("node", node)),
		active:     reg.Gauge("pubsub_subscriptions_active", obs.L("node", node)),
		spans:      reg.Spans(),
		ledger:     reg.Ledger(),
	}
	b.mu.Lock()
	b.obs = o
	b.mu.Unlock()
}

// New returns an empty broker.
func New() *Broker {
	return &Broker{
		subs:     make(map[string][]*Subscription),
		snap:     make(map[string][]*Subscription),
		watchers: make(map[int]*watcher),
	}
}

// snapshot returns the cached publish-order view of a channel's
// subscriptions, building it on the first publish after a membership change.
// The returned slice is immutable (rebuilt, never patched), so publish
// can iterate it outside the lock — activity is re-checked per delivery via
// the atomic active flag, which keeps Release/Renew out of the invalidation
// story entirely. Caller holds b.mu.
func (b *Broker) snapshot(channel string) []*Subscription {
	snap, ok := b.snap[channel]
	if !ok {
		snap = append([]*Subscription(nil), b.subs[channel]...)
		b.snap[channel] = snap
	}
	return snap
}

type watcher struct {
	channel string // "" watches every channel
	fn      func(channel string)
}

// Subscribe registers a handler on a channel. params may be nil. The returned
// subscription is active until released. A nil handler subscription is valid
// and acts as a pure demand signal (used by proxy bookkeeping in tests).
func (b *Broker) Subscribe(channel string, params msg.Map, h Handler) *Subscription {
	sub := &Subscription{
		broker:  b,
		channel: channel,
		params:  msg.Freeze(params),
		handler: h,
	}
	sub.active.Store(true)
	b.mu.Lock()
	b.subs[channel] = append(b.subs[channel], sub)
	delete(b.snap, channel)
	b.mu.Unlock()
	b.notifyChange(channel)
	return sub
}

// Publish delivers a message to every active subscription on the channel.
// The message is encoded once (msg.Encode) and every subscriber — local
// handlers and the proxies that forward it — reads the same bytes. A map
// that does not encode reaches nobody. Publish returns the number of
// subscriptions the message was delivered to.
func (b *Broker) Publish(channel string, m msg.Map) int {
	r, err := msg.Encode(m)
	if err != nil {
		return 0
	}
	return b.publish(channel, r, "", 0, false)
}

// PublishRaw is Publish for a message that is encoded already, which is
// delivered as it is. forwarded marks a message published as it arrived — a
// script forwarding what it received — which the freeze-hit counter books;
// a script's fresh encoding of an object it built is not one.
func (b *Broker) PublishRaw(channel string, r msg.Raw, forwarded bool) int {
	return b.publish(channel, r, "", 0, forwarded)
}

// SetTraceIdentity enables deterministic trace-ID assignment for local
// publications: each draws the next number n from pubs, the publication
// counter every broker on the node shares, and carries the trace
// obs.PublicationTrace(node, n). Call once, before traffic flows; the core
// wires it for every node regardless of observability, so wire bytes never
// depend on whether a registry is attached.
func (b *Broker) SetTraceIdentity(node string, pubs *atomic.Uint64) {
	b.mu.Lock()
	b.traceNode, b.pubs = node, pubs
	b.mu.Unlock()
}

// PublishTraced is PublishRaw with an origin and explicit trace context: the
// core passes a message arriving from a remote node with its wire-propagated
// trace ID, so the receiving fanout joins the sender's span tree. trace 0 on
// a local publication assigns a fresh deterministic ID (when
// SetTraceIdentity was called); trace 0 with no identity leaves the event
// untraced.
func (b *Broker) PublishTraced(channel string, r msg.Raw, origin string, trace obs.TraceID) int {
	return b.publish(channel, r, origin, trace, true)
}

// publish fans r out. forwarded marks a message published as it arrived,
// which the freeze-hit counter records.
func (b *Broker) publish(channel string, r msg.Raw, origin string, trace obs.TraceID, forwarded bool) int {
	b.mu.Lock()
	o := b.obs
	subs := b.snapshot(channel)
	var pub uint64
	if trace == 0 && origin == "" && b.pubs != nil {
		pub = b.pubs.Add(1)
		trace = obs.PublicationTrace(b.traceNode, pub)
	}
	b.mu.Unlock()

	delivered := 0
	for _, s := range subs {
		if s.handler != nil && s.active.Load() {
			delivered++
		}
	}
	if o != nil {
		if forwarded {
			o.freezeHits.Inc()
		}
		o.publishes.Inc()
		o.deliveries.Add(int64(delivered))
		o.fanout.Observe(float64(delivered))
		// Local publications open a message's lifecycle; remote-originated
		// ones close it with the receiving broker's fanout. Recorded before
		// the handlers run: delivery is synchronous, so anything a handler
		// does (the proxy's enqueue, a chained publish) traces after its
		// cause.
		stage := obs.StagePublish
		detail := "fanout=" + strconv.Itoa(delivered)
		if origin != "" {
			stage = obs.StageFanout
			detail += " origin=" + origin
		}
		o.spans.Record(o.now(), trace, stage, o.node, channel, 0, detail)
		if o.ledger != nil {
			o.ledger.Meter(o.entity, "", channel).AddMessages(1)
		}
	}
	for _, s := range subs {
		if s.handler == nil || !s.active.Load() {
			continue
		}
		s.handler(Event{
			Channel: channel,
			Message: r,
			Params:  s.params,
			Origin:  origin,
			Trace:   trace,
			Pub:     pub,
		})
	}
	return delivered
}

// Subscriptions returns the active subscriptions on a channel. The param
// maps are shared, read-only snapshots.
func (b *Broker) Subscriptions(channel string) []SubscriptionInfo {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []SubscriptionInfo
	for _, s := range b.subs[channel] {
		if s.active.Load() {
			out = append(out, SubscriptionInfo{Channel: channel, Params: s.params})
		}
	}
	return out
}

// HasSubscribers reports whether any active subscription exists on a channel.
// Sensors use this to gate sampling (§4.3: "If not, the sensor can be turned
// off to save energy").
func (b *Broker) HasSubscribers(channel string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, s := range b.subs[channel] {
		if s.active.Load() {
			return true
		}
	}
	return false
}

// OnSubscriptionChange registers fn to be called (synchronously) whenever the
// set of active subscriptions on channel changes — subscribe, release, renew,
// or param change via re-subscribe. An empty channel watches all channels.
// The returned cancel function removes the watcher.
func (b *Broker) OnSubscriptionChange(channel string, fn func(channel string)) (cancel func()) {
	b.mu.Lock()
	id := b.nextID
	b.nextID++
	b.watchers[id] = &watcher{channel: channel, fn: fn}
	b.mu.Unlock()
	return func() {
		b.mu.Lock()
		delete(b.watchers, id)
		b.mu.Unlock()
	}
}

func (b *Broker) notifyChange(channel string) {
	b.mu.Lock()
	if b.obs != nil {
		active := 0
		for _, subs := range b.subs {
			for _, s := range subs {
				if s.active.Load() {
					active++
				}
			}
		}
		b.obs.active.Set(float64(active))
	}
	fns := make([]func(string), 0, len(b.watchers))
	for _, w := range b.watchers {
		if w.channel == "" || w.channel == channel {
			fns = append(fns, w.fn)
		}
	}
	b.mu.Unlock()
	for _, fn := range fns {
		fn(channel)
	}
}

// removeSub drops a subscription from the broker entirely (on Close).
func (b *Broker) removeSub(sub *Subscription) {
	b.mu.Lock()
	list := b.subs[sub.channel]
	for i, s := range list {
		if s == sub {
			b.subs[sub.channel] = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(b.subs[sub.channel]) == 0 {
		delete(b.subs, sub.channel)
	}
	delete(b.snap, sub.channel)
	b.mu.Unlock()
}

// Subscription is a handle on a channel subscription. Release deactivates it
// and Renew reactivates it; both are idempotent (§4.4: "these methods have no
// effect when the subscription is inactive or active respectively").
type Subscription struct {
	broker  *Broker
	channel string
	// params is the subscription's parameter object (nil when it has none):
	// a snapshot taken at Subscribe time (msg.Freeze) and shared, read-only
	// for all readers. A reader that needs a mutable version clones it
	// (msg.Clone).
	params  msg.Map
	handler Handler

	// active is atomic: the broker reads it on every publish (under its own
	// mutex, not the subscription's), while Release/Renew write it under the
	// subscription mutex.
	active atomic.Bool

	mu     sync.Mutex
	closed bool
}

// Release deactivates the subscription. No-op if already inactive or closed.
func (s *Subscription) Release() {
	s.mu.Lock()
	if s.closed || !s.active.Load() {
		s.mu.Unlock()
		return
	}
	s.active.Store(false)
	s.mu.Unlock()
	s.broker.notifyChange(s.channel)
}

// Renew reactivates a released subscription. No-op if already active or
// closed.
func (s *Subscription) Renew() {
	s.mu.Lock()
	if s.closed || s.active.Load() {
		s.mu.Unlock()
		return
	}
	s.active.Store(true)
	s.mu.Unlock()
	s.broker.notifyChange(s.channel)
}

// Close permanently removes the subscription from the broker. Used when a
// script or context is torn down.
func (s *Subscription) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	wasActive := s.active.Load()
	s.closed = true
	s.active.Store(false)
	s.mu.Unlock()
	s.broker.removeSub(s)
	if wasActive {
		s.broker.notifyChange(s.channel)
	}
}
