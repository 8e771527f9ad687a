package xmpp

import (
	"sort"
	"sync"

	"pogo/internal/obs"
	"pogo/internal/vclock"
)

// queueCap is how many stanzas the switchboard holds per user while the user
// has no live session. A full queue evicts (and counts) its oldest stanza:
// the sender's end-to-end retransmission covers it.
const queueCap = 64

// Sink is the outbound side of one attached session: what the switchboard
// writes to, and what identifies the session, so it must be comparable (a
// pointer, typically). An adapter serializes calls on one sink itself; the
// switchboard calls sinks without holding its own lock.
//
// A stanza handed to a sink is valid only during the call: the TCP server's
// are views of a connection's read buffer, which the next frame overwrites.
// A sink that keeps one longer may do so only when its own adapter's
// producers route stanzas they own (memnet's Port.Send copies the payload).
type Sink interface {
	// Deliver hands over one routed stanza. An error marks the session stale:
	// the switchboard detaches it and queues the stanza for the next one.
	Deliver(m Stanza) error
	// Presence tells the session a roster contact came or went.
	Presence(user string, available bool)
	// Bounce returns a stanza the sender was not allowed to send.
	Bounce(m Stanza, reason string)
}

// Switchboard is the routing core behind both the TCP server and the
// in-memory test worlds: accounts, rosters, one session per user, presence
// fan-out, per-user offline queues replayed on attach, and the not-on-roster
// bounce. It has no goroutines and no sockets; it writes through each
// session's Sink and stamps trace hops from an injected clock (§3.1: "a
// central server acting only as a communications switchboard").
type Switchboard struct {
	clk vclock.Clock

	mu       sync.Mutex
	accounts map[string]string          // user → password
	rosters  map[string]map[string]bool // user → contact users
	sessions map[string]Sink            // user → attached session
	queues   map[string][]Stanza        // user → stanzas awaiting a live session
	draining map[string]bool            // user → replay running, no live traffic yet

	// Instruments; nil (no-op) without a registry.
	obsSessions   *obs.Gauge
	obsRouted     *obs.Counter
	obsBounced    *obs.Counter
	obsAuthFails  *obs.Counter
	obsQueued     *obs.Counter
	obsResumed    *obs.Counter
	obsQueueDrops *obs.Counter
	spans         *obs.SpanStore
}

// switchboardNode is the span node name hops are recorded under: the
// switchboard is a single central entity, not a Pogo node.
const switchboardNode = "switchboard"

// NewSwitchboard returns an empty switchboard on clk. reg may be nil: then it
// registers no metrics and records no hops.
func NewSwitchboard(clk vclock.Clock, reg *obs.Registry) *Switchboard {
	s := &Switchboard{
		clk:      clk,
		accounts: make(map[string]string),
		rosters:  make(map[string]map[string]bool),
		sessions: make(map[string]Sink),
		queues:   make(map[string][]Stanza),
		draining: make(map[string]bool),
	}
	if reg != nil {
		s.obsSessions = reg.Gauge("xmpp_server_sessions")
		s.obsRouted = reg.Counter("xmpp_server_stanzas_routed_total")
		s.obsBounced = reg.Counter("xmpp_server_bounces_total")
		s.obsAuthFails = reg.Counter("xmpp_server_auth_failures_total")
		s.obsQueued = reg.Counter("xmpp_server_queued_total")
		s.obsResumed = reg.Counter("xmpp_server_resumed_total")
		s.obsQueueDrops = reg.Counter("xmpp_server_queue_drops_total")
		s.spans = reg.Spans()
	}
	return s
}

// authenticate checks credentials, creating the account on first login when
// register is set — the paper's zero-registration participation model
// (§3.3). It returns "" when accepted, else the failure reason.
func (s *Switchboard) authenticate(user, password string, register bool) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	pw, ok := s.accounts[user]
	switch {
	case !ok && register:
		s.accounts[user] = password
	case !ok:
		s.obsAuthFails.Inc()
		return "no-such-account"
	case pw != password:
		s.obsAuthFails.Inc()
		return "bad-credentials"
	}
	return ""
}

// Associate links a researcher and a device owner in both rosters — the
// administrator's broker role (§3.1): it decides which devices are assigned
// to which researchers. When both are attached they learn of each other at
// once, so a late association reaches running nodes.
func (s *Switchboard) Associate(a, b string) {
	s.mu.Lock()
	for _, pair := range [2][2]string{{a, b}, {b, a}} {
		if s.rosters[pair[0]] == nil {
			s.rosters[pair[0]] = make(map[string]bool)
		}
		s.rosters[pair[0]][pair[1]] = true
	}
	sa, sb := s.sessions[a], s.sessions[b]
	s.mu.Unlock()
	if sa != nil && sb != nil {
		sb.Presence(a, true)
		sa.Presence(b, true)
	}
}

// Roster returns a user's contacts, sorted.
func (s *Switchboard) Roster(user string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.rosters[user]))
	for c := range s.rosters[user] {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Online reports whether a user has an attached session.
func (s *Switchboard) Online(user string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[user] != nil
}

// Attach makes sink user's session, displacing any previous one (newest
// login wins: a phone reconnecting after an interface change before the old
// TCP session was noticed dead, §4.6). Online roster contacts are told the
// user is available, in sorted order; then the offline queue is replayed,
// and only once it is empty does live traffic flow to the session. The
// displaced session's sink, if any, is returned for the adapter to close.
func (s *Switchboard) Attach(user string, sink Sink) (displaced Sink) {
	s.mu.Lock()
	defer s.mu.Unlock()
	displaced = s.sessions[user]
	s.sessions[user] = sink
	s.obsSessions.Set(float64(len(s.sessions)))
	// One replay runs per user: one under way carries on with this session.
	replaying := s.draining[user]
	s.draining[user] = true
	s.announceLocked(user, true)
	if !replaying {
		s.drainLocked(user)
	}
	return displaced
}

// Detach ends user's session through sink; its roster contacts see it go.
// Detaching a session that was already displaced or found stale does
// nothing.
func (s *Switchboard) Detach(user string, sink Sink) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.detachLocked(user, sink)
}

// Route delivers m from one user to another: to the recipient's live
// session, else into its offline queue. A sender may only reach its roster
// contacts (and itself); anything else bounces. m is the caller's and is
// used only during the call: the switchboard keeps it only by copying it
// into the offline queue. The live path takes the lock once and allocates
// nothing.
func (s *Switchboard) Route(from, to string, m Stanza) {
	s.mu.Lock()
	if from != to && !s.rosters[from][to] {
		src := s.sessions[from]
		s.mu.Unlock()
		s.obsBounced.Inc()
		if src != nil {
			src.Bounce(m, "not-on-roster")
		}
		return
	}
	for {
		dst := s.sessions[to]
		if dst == nil || s.draining[to] {
			s.enqueueLocked(to, m, false)
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		if dst.Deliver(m) == nil {
			s.obsRouted.Inc()
			s.hop(obs.StageRoute, m.T, "to=", to)
			return
		}
		// The recipient's connection went stale underneath us (§4.6's
		// interface-handover failure): drop that session and go round again,
		// which queues m unless a newer session is already live.
		s.mu.Lock()
		s.detachLocked(to, dst)
	}
}

// drainLocked replays user's offline queue, one stanza at a time, to
// whichever session is attached, until the queue is empty or no session is
// left; then live traffic may flow.
func (s *Switchboard) drainLocked(user string) {
	defer delete(s.draining, user)
	for {
		sink, q := s.sessions[user], s.queues[user]
		if sink == nil {
			return
		}
		if len(q) == 0 {
			delete(s.queues, user)
			return
		}
		s.queues[user] = q[1:]
		s.mu.Unlock()
		err := sink.Deliver(q[0])
		s.mu.Lock()
		if err != nil {
			s.enqueueLocked(user, q[0], true)
			s.detachLocked(user, sink)
			continue
		}
		s.obsResumed.Inc()
		s.hop(obs.StageReplay, q[0].T, "user=", user)
	}
}

// enqueueLocked holds m for user's next session: at the back for a routed
// stanza, which the queue keeps a copy of (Route's m is the caller's), at
// the front for one a replay failed to hand over, which is the queue's
// already. A queue over queueCap loses its oldest stanza.
func (s *Switchboard) enqueueLocked(user string, m Stanza, front bool) {
	q := s.queues[user]
	if front {
		q = append(append(make([]Stanza, 0, len(q)+1), m), q...)
	} else {
		q = append(q, m.owned())
		s.obsQueued.Inc()
		s.hop(obs.StageOffline, m.T, "user=", user)
	}
	if len(q) > queueCap {
		q = q[len(q)-queueCap:]
		s.obsQueueDrops.Inc()
	}
	s.queues[user] = q
}

// detachLocked drops sink if it is still user's session.
func (s *Switchboard) detachLocked(user string, sink Sink) {
	if s.sessions[user] == sink {
		delete(s.sessions, user)
		s.obsSessions.Set(float64(len(s.sessions)))
		s.announceLocked(user, false)
	}
}

// announceLocked tells user's attached roster contacts, in sorted order,
// that it came or went, dropping the lock while it calls their sinks.
func (s *Switchboard) announceLocked(user string, available bool) {
	var peers []string
	for contact := range s.rosters[user] {
		if s.sessions[contact] != nil {
			peers = append(peers, contact)
		}
	}
	sort.Strings(peers)
	sinks := make([]Sink, len(peers))
	for i, p := range peers {
		sinks[i] = s.sessions[p]
	}
	s.mu.Unlock()
	defer s.mu.Lock()
	for _, sink := range sinks {
		sink.Presence(user, available)
	}
}

// hop records one causal hop per trace ID in a frame's trace field, stamped
// from the switchboard's clock; the detail is key+user. Untraced stanzas, or
// no span store, cost nothing.
func (s *Switchboard) hop(stage obs.Stage, traceAttr, key, user string) {
	if s.spans == nil || traceAttr == "" {
		return
	}
	at, detail := s.clk.Now(), key+user
	for _, tr := range parseTraceAttr(traceAttr) {
		s.spans.Record(at, tr, stage, switchboardNode, "", 0, detail)
	}
}
