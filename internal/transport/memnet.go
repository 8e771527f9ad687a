package transport

import (
	"sync"
	"time"

	"pogo/internal/radio"
	"pogo/internal/vclock"
	"pogo/internal/xmpp"
)

// wireLatency delays every hop from a wired (connectivity-less) port.
const wireLatency = 5 * time.Millisecond

// Switchboard is the in-memory adapter of the routing core the XMPP server
// runs (xmpp.Switchboard): rosters, presence, offline queues and the roster
// rule are the deployed server's own. What it adds is the simulated wire:
// sends from and deliveries to phones traverse their radio links, so
// transport costs energy and drives the tail detector, and sends from wired
// ports take wireLatency. It registers no metrics and records no hops.
type Switchboard struct {
	*xmpp.Switchboard
	clk vclock.Clock
}

// NewSwitchboard returns an empty switchboard on the given clock.
func NewSwitchboard(clk vclock.Clock) *Switchboard {
	return &Switchboard{Switchboard: xmpp.NewSwitchboard(clk, nil), clk: clk}
}

// Port creates this identity's attachment point; it logs in whenever it is
// online. conn may be nil for wired nodes (collectors, always online, no
// energy modeling). A second Port call for the same id takes over the login
// (a "reinstall").
func (s *Switchboard) Port(id string, conn *radio.Connectivity) *Port {
	p := &Port{sb: s, id: id, conn: conn}
	if conn != nil {
		conn.OnChange(func(old, new radio.Interface) {
			p.connectivityChanged(new != radio.InterfaceNone)
		})
	}
	if p.Online() {
		s.Attach(id, (*portSink)(p))
	}
	return p
}

// Port is one node's attachment to the switchboard, implementing Messenger.
type Port struct {
	sb   *Switchboard
	id   string
	conn *radio.Connectivity // nil for wired nodes

	mu         sync.Mutex
	closed     bool
	onReceive  func(from string, payload []byte)
	onOnline   []func()
	onPresence []func(peer string, online bool)
}

var _ Messenger = (*Port)(nil)

// LocalID implements Messenger.
func (p *Port) LocalID() string { return p.id }

// Online implements Messenger. Wired ports are always online.
func (p *Port) Online() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return !p.closed && (p.conn == nil || p.conn.Online())
}

// Send implements Messenger: uplink through the active radio (costing
// energy and moving traffic counters), then switchboard routing.
func (p *Port) Send(to string, payload []byte) error {
	if !p.Online() {
		return ErrOffline
	}
	body := append([]byte(nil), payload...)
	route := func() { p.sb.Route(p.id, to, xmpp.Stanza{To: to, From: p.id, Body: body}) }
	if p.conn == nil {
		// Fire-and-forget: Schedule skips the Timer handle AfterFunc would
		// allocate for a cancellation we never use.
		vclock.Schedule(p.sb.clk, wireLatency, route)
		return nil
	}
	link := p.conn.Link()
	if link == nil {
		return ErrOffline
	}
	link.Transfer(int64(len(body)), 0, route)
	return nil
}

// portSink is the Port as the switchboard's Sink for its session.
type portSink Port

// Deliver implements xmpp.Sink: the payload runs through the node's downlink
// and on to the receive handler. A phone whose radio is down is stale.
func (s *portSink) Deliver(m xmpp.Stanza) error {
	p := (*Port)(s)
	from, body := m.From, m.Body
	if p.conn == nil {
		// Wired node: hand off synchronously without materializing the
		// closure the radio path needs.
		p.handoff(from, body)
		return nil
	}
	link := p.conn.Link()
	if link == nil {
		return ErrOffline
	}
	link.Transfer(0, int64(len(body)), func() { p.handoff(from, body) })
	return nil
}

// Presence implements xmpp.Sink.
func (s *portSink) Presence(user string, available bool) {
	p := (*Port)(s)
	p.mu.Lock()
	handlers := make([]func(string, bool), len(p.onPresence))
	copy(handlers, p.onPresence)
	p.mu.Unlock()
	for _, fn := range handlers {
		fn(user, available)
	}
}

// Bounce implements xmpp.Sink. Messenger has no error callback: a payload
// for someone off the roster is simply lost.
func (s *portSink) Bounce(xmpp.Stanza, string) {}

func (p *Port) handoff(from string, payload []byte) {
	p.mu.Lock()
	fn := p.onReceive
	closed := p.closed
	p.mu.Unlock()
	if fn != nil && !closed {
		fn(from, payload)
	}
}

// OnReceive implements Messenger.
func (p *Port) OnReceive(fn func(from string, payload []byte)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.onReceive = fn
}

// OnOnline implements Messenger.
func (p *Port) OnOnline(fn func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.onOnline = append(p.onOnline, fn)
}

// OnPresence implements Messenger.
func (p *Port) OnPresence(fn func(peer string, online bool)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.onPresence = append(p.onPresence, fn)
}

// Peers implements Messenger.
func (p *Port) Peers() []string { return p.sb.Roster(p.id) }

// Close detaches the port; peers see it go offline.
func (p *Port) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.sb.Detach(p.id, (*portSink)(p))
}

// connectivityChanged logs the port in again on every change to an active
// interface (phones have no TCP handover, §4.6) and out when the radio goes.
func (p *Port) connectivityChanged(online bool) {
	p.mu.Lock()
	closed := p.closed
	handlers := make([]func(), len(p.onOnline))
	copy(handlers, p.onOnline)
	p.mu.Unlock()
	if closed {
		return
	}
	if !online {
		p.sb.Detach(p.id, (*portSink)(p))
		return
	}
	p.sb.Attach(p.id, (*portSink)(p))
	for _, fn := range handlers {
		fn()
	}
}
