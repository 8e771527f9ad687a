package obs

import (
	"sort"
	"sync"
	"time"
)

// Lifecycle tracing. The SpanStore is the one recorder of a message's
// journey: every layer records a *hop* keyed by an 8-byte trace ID that
// travels with the message across the wire (transport envelope field, XMPP
// stanza attribute), so the full causal chain
//
//	publish → enqueue → send/retry → route → offline → replay → deliver → fanout
//
// can be reassembled into a span tree even when the hops were recorded by
// different processes, shards, or goroutines.
//
// Determinism rules, matching the rest of the stack:
//
//   - Trace IDs derive from (seed, entity, outbox seq) — never from wall
//     clock or math/rand — so the same seeded run assigns the same IDs.
//   - Every read-side view (Hops, Traces, Tree, the exporters) is a pure
//     function of the hop *set*: hops are content-sorted and deduplicated,
//     never exposed in recording order, so concurrent shard workers feeding
//     one store still yield byte-identical exports.
//   - Timestamps are supplied by callers from their own (simulated) clock.

// Stage names one step of a message's lifecycle through the stack.
type Stage string

// Lifecycle stages, in the order a message that crosses the network
// traverses them. A locally consumed message stops at StagePublish; a
// remote-bound one continues through the transport to the peer, where the
// final broker fanout is recorded as StageFanout.
const (
	// StagePublish: a broker delivered a local publication to its active
	// subscriptions (internal/pubsub).
	StagePublish Stage = "publish"
	// StageEnqueue: the transport buffered a message in the durable outbox
	// (internal/transport).
	StageEnqueue Stage = "enqueue"
	// StageSend: one buffered message was handed to the messenger inside a
	// batch envelope.
	StageSend Stage = "send"
	// StageRoute: the XMPP switchboard routed a stanza toward an online
	// recipient (internal/xmpp).
	StageRoute Stage = "route"
	// StageOffline: the switchboard parked a stanza in the recipient's
	// offline queue.
	StageOffline Stage = "offline"
	// StageReplay: the switchboard replayed a queued stanza to a recipient
	// that came back online.
	StageReplay Stage = "replay"
	// StageDeliver: the receiving endpoint accepted a fresh (deduplicated)
	// message and handed it to the application.
	StageDeliver Stage = "deliver"
	// StageFanout: the receiving broker re-published a remote-originated
	// message to its local subscriptions.
	StageFanout Stage = "fanout"
	// StageExpire: the max-age policy purged a buffered message unsent.
	StageExpire Stage = "expire"
)

// TraceID is the 8-byte causal identity of one published message. Zero means
// "untraced": decoders map an absent wire field to 0 and recorders drop
// zero-trace hops, which is what makes old-peer interop a no-op.
type TraceID uint64

const hexdigits = "0123456789abcdef"

// String renders the fixed-width lowercase hex form (%016x).
func (t TraceID) String() string {
	var b [16]byte
	v := uint64(t)
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// MarshalJSON encodes the ID as its hex string, the form used in flight
// dumps and trace exports (JSON numbers above 2^53 are hostile to other
// tooling).
func (t TraceID) MarshalJSON() ([]byte, error) {
	return []byte(`"` + t.String() + `"`), nil
}

// UnmarshalJSON accepts the hex-string form.
func (t *TraceID) UnmarshalJSON(b []byte) error {
	s := string(b)
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		s = s[1 : len(s)-1]
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 | uint64(c-'a'+10)
		case c >= 'A' && c <= 'F':
			v = v<<4 | uint64(c-'A'+10)
		default:
			return errBadTraceID
		}
	}
	*t = TraceID(v)
	return nil
}

type badTraceIDError struct{}

func (badTraceIDError) Error() string { return "obs: malformed trace id" }

var errBadTraceID = badTraceIDError{}

// NewTraceID derives the deterministic trace ID of the seq-th traced message
// originated by entity under the given simulation seed: FNV-64a over the
// seed, the entity name, and the sequence number. The same (seed, entity,
// seq) triple always yields the same ID — across runs, shard counts, and
// process reboots (transport re-derives root IDs from persisted outbox IDs).
// The all-zero digest is remapped to 1 so 0 stays reserved for "untraced".
func NewTraceID(seed int64, entity string, seq uint64) TraceID {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	for i := 0; i < 8; i++ {
		mix(byte(uint64(seed) >> (8 * i)))
	}
	for i := 0; i < len(entity); i++ {
		mix(entity[i])
	}
	mix(0) // separator: ("ab",1) must differ from ("a",b1)
	for i := 0; i < 8; i++ {
		mix(byte(seq >> (8 * i)))
	}
	if h == 0 {
		h = 1
	}
	return TraceID(h)
}

// Hop is one causally linked step of a traced message. It carries no
// store-assigned sequence number: its identity is purely its content, so
// hops recorded concurrently (fleet shards) or replayed out of order
// reassemble identically.
type Hop struct {
	Trace   TraceID   `json:"trace"`
	At      time.Time `json:"at"`
	Stage   Stage     `json:"stage"`
	Node    string    `json:"node"`
	Channel string    `json:"channel,omitempty"`
	// MsgID is the sender-side outbox id for transport hops (0 elsewhere).
	MsgID  uint64 `json:"msg,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// stageRank orders lifecycle stages for parent-linkage: a hop's parent is
// the nearest earlier hop of strictly lower rank, so publish anchors
// enqueue, enqueue anchors each (re)send, the last send anchors the route,
// and so on down to deliver and the receiving broker's fanout.
func stageRank(s Stage) int {
	switch s {
	case StagePublish:
		return 0
	case StageEnqueue:
		return 1
	case StageSend:
		return 2
	case StageRoute:
		return 3
	case StageOffline:
		return 4
	case StageReplay:
		return 5
	case StageDeliver:
		return 6
	case StageFanout:
		return 7
	case StageExpire:
		return 8
	default:
		return 9
	}
}

// DefaultSpanCapacity bounds the span store's ring buffer.
const DefaultSpanCapacity = 16384

// DeliveryLatencyBuckets suit end-to-end delivery latency in seconds:
// millisecond wire hops through retry-dominated tails of minutes.
var DeliveryLatencyBuckets = []float64{
	0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 15, 30, 60, 120, 300, 900,
}

// rootsPerHop sizes the first-hop index used for delivery-latency
// observation relative to the ring: a trace's root outlives its hops' stay
// in the ring (a delivery delayed by retries still finds its zero point), up
// to rootsPerHop × capacity traces — 2^20 at DefaultSpanCapacity.
const rootsPerHop = 64

// SpanStore records hops into a bounded ring and reassembles span trees.
// The zero value is not usable; construct with NewSpanStore (NewRegistry
// attaches one). All methods are nil-safe, and recording is safe from
// concurrent goroutines.
type SpanStore struct {
	mu      sync.Mutex
	cap     int
	buf     []Hop // ring
	start   int   // index of oldest hop
	dropped uint64
	onDrop  func()
	// roots holds the earliest-known hop instant per trace, the zero point
	// for delivery-latency observation at StageDeliver. At most
	// rootsPerHop × cap entries; see sweepRootsLocked.
	roots map[TraceID]time.Time
	// latencyFor supplies the per-channel delivery-latency histogram; set by
	// NewRegistry, nil on a bare store.
	latencyFor func(channel string) *Histogram
}

// NewSpanStore returns a store retaining the most recent capacity hops
// (DefaultSpanCapacity when capacity <= 0).
func NewSpanStore(capacity int) *SpanStore {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	return &SpanStore{cap: capacity, roots: make(map[TraceID]time.Time)}
}

// OnDrop registers fn to run once per evicted hop; NewRegistry wires it to
// the trace_dropped_spans counter so truncated traces are detectable from
// /stats.
func (s *SpanStore) OnDrop(fn func()) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.onDrop = fn
	s.mu.Unlock()
}

// Record appends one hop. Zero-trace hops are dropped (untraced message from
// an old peer). Nil-safe no-op. A StageDeliver hop additionally observes
// end-to-end latency against the trace's earliest known hop.
func (s *SpanStore) Record(at time.Time, trace TraceID, stage Stage, node, channel string, msgID uint64, detail string) {
	if s == nil || trace == 0 {
		return
	}
	hop := Hop{Trace: trace, At: at, Stage: stage, Node: node, Channel: channel, MsgID: msgID, Detail: detail}
	var (
		observe *Histogram
		latency float64
	)
	s.mu.Lock()
	if root, ok := s.roots[trace]; !ok {
		if len(s.roots) >= rootsPerHop*s.cap {
			s.sweepRootsLocked()
		}
		if len(s.roots) < rootsPerHop*s.cap {
			s.roots[trace] = at
		}
	} else if at.Before(root) {
		s.roots[trace] = at
	} else if stage == StageDeliver && s.latencyFor != nil {
		latency = at.Sub(root).Seconds()
		observe = s.latencyFor(channel)
	}
	if len(s.buf) < s.cap {
		s.buf = append(s.buf, hop)
	} else {
		s.buf[s.start] = hop
		s.start = (s.start + 1) % s.cap
		s.dropped++
		if s.onDrop != nil {
			s.onDrop()
		}
	}
	s.mu.Unlock()
	observe.Observe(latency)
}

// sweepRootsLocked makes room in a full roots index by forgetting every
// trace that began before the oldest hop still in the ring: on a long-lived
// node those are the delivered and abandoned messages of hours ago, and
// without the sweep the index would fill once and no later trace would ever
// reach the latency histogram. A swept trace that does deliver after all
// starts over as a new root and goes unobserved. The sweep frees all but the
// last ring's worth of traces, so its cost amortizes over the roughly
// (rootsPerHop-1) × cap new traces it takes to fill the index again.
func (s *SpanStore) sweepRootsLocked() {
	// A full index implies recorded hops, and Reset clears both together.
	oldest := s.buf[0].At
	for _, h := range s.buf[1:] {
		if h.At.Before(oldest) {
			oldest = h.At
		}
	}
	for trace, at := range s.roots {
		if at.Before(oldest) {
			delete(s.roots, trace)
		}
	}
}

// Dropped reports how many hops the ring has evicted.
func (s *SpanStore) Dropped() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Len reports how many hops are currently retained.
func (s *SpanStore) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.buf)
}

// Reset discards all retained hops and root timestamps.
func (s *SpanStore) Reset() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = s.buf[:0]
	s.start = 0
	s.roots = make(map[TraceID]time.Time)
}

// hopLess is the canonical content ordering of hops: time, then lifecycle
// rank, then the remaining fields as tiebreak. It depends only on hop
// content, never on recording order.
func hopLess(a, b Hop) bool {
	if !a.At.Equal(b.At) {
		return a.At.Before(b.At)
	}
	if ra, rb := stageRank(a.Stage), stageRank(b.Stage); ra != rb {
		return ra < rb
	}
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	if a.Channel != b.Channel {
		return a.Channel < b.Channel
	}
	if a.MsgID != b.MsgID {
		return a.MsgID < b.MsgID
	}
	return a.Detail < b.Detail
}

func hopEqual(a, b Hop) bool {
	return a.Trace == b.Trace && a.At.Equal(b.At) && a.Stage == b.Stage &&
		a.Node == b.Node && a.Channel == b.Channel && a.MsgID == b.MsgID && a.Detail == b.Detail
}

// sortDedup canonicalizes a hop slice in place: content-sorted with exact
// duplicates collapsed (a hop recorded twice — e.g. a duplicated delivery
// report — is one causal fact, not two).
func sortDedup(hops []Hop) []Hop {
	sort.Slice(hops, func(i, j int) bool {
		if hops[i].Trace != hops[j].Trace {
			return hops[i].Trace < hops[j].Trace
		}
		return hopLess(hops[i], hops[j])
	})
	out := hops[:0]
	for _, h := range hops {
		if len(out) > 0 && hopEqual(out[len(out)-1], h) {
			continue
		}
		out = append(out, h)
	}
	return out
}

// Hops returns every retained hop in canonical content order (sorted by
// trace, then time/stage; exact duplicates removed).
func (s *SpanStore) Hops() []Hop {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	hops := make([]Hop, 0, len(s.buf))
	for i := 0; i < len(s.buf); i++ {
		hops = append(hops, s.buf[(s.start+i)%len(s.buf)])
	}
	s.mu.Unlock()
	return sortDedup(hops)
}

// HopsFor returns the retained hops of one trace in canonical order.
func (s *SpanStore) HopsFor(trace TraceID) []Hop {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	var hops []Hop
	for i := 0; i < len(s.buf); i++ {
		if h := s.buf[(s.start+i)%len(s.buf)]; h.Trace == trace {
			hops = append(hops, h)
		}
	}
	s.mu.Unlock()
	return sortDedup(hops)
}

// Traces lists the distinct trace IDs with retained hops, ascending.
func (s *SpanStore) Traces() []TraceID {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	seen := make(map[TraceID]struct{})
	for i := 0; i < len(s.buf); i++ {
		seen[s.buf[i].Trace] = struct{}{}
	}
	s.mu.Unlock()
	out := make([]TraceID, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SpanNode is one hop with its causal children: the span tree of a trace.
type SpanNode struct {
	Hop      Hop         `json:"hop"`
	Children []*SpanNode `json:"children,omitempty"`
}

// Tree reassembles the span tree of one trace from whatever hops were
// retained, tolerating out-of-order and duplicated recording: hops are
// canonicalized first, then each hop is parented onto the nearest earlier
// hop of strictly lower lifecycle rank (falling back to the root), which
// makes retransmitted sends siblings under their enqueue and puts a replayed
// offline delivery under the replay hop. Returns nil when no hops remain.
func (s *SpanStore) Tree(trace TraceID) *SpanNode {
	return AssembleTree(s.HopsFor(trace))
}

// AssembleTree builds a span tree from canonically ordered hops of a single
// trace (see Tree). Exported so flight-dump tooling can rebuild trees from
// serialized hops without a live store.
func AssembleTree(hops []Hop) *SpanNode {
	if len(hops) == 0 {
		return nil
	}
	nodes := make([]*SpanNode, len(hops))
	for i := range hops {
		nodes[i] = &SpanNode{Hop: hops[i]}
	}
	root := nodes[0]
	for i := 1; i < len(nodes); i++ {
		parent := root
		for j := i - 1; j >= 0; j-- {
			if stageRank(nodes[j].Hop.Stage) < stageRank(nodes[i].Hop.Stage) {
				parent = nodes[j]
				break
			}
		}
		if parent == nodes[i] {
			parent = root
		}
		parent.Children = append(parent.Children, nodes[i])
	}
	return root
}

// Walk visits the tree depth-first, parents before children.
func (n *SpanNode) Walk(fn func(depth int, node *SpanNode)) {
	var rec func(depth int, node *SpanNode)
	rec = func(depth int, node *SpanNode) {
		fn(depth, node)
		for _, c := range node.Children {
			rec(depth+1, c)
		}
	}
	if n != nil {
		rec(0, n)
	}
}

// Stages returns the set of stages present in the tree, in canonical hop
// order — the quick "did this message make it to deliver?" probe used by
// flight-dump verification.
func (n *SpanNode) Stages() []Stage {
	var out []Stage
	n.Walk(func(_ int, node *SpanNode) { out = append(out, node.Hop.Stage) })
	return out
}
