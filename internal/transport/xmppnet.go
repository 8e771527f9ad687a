package transport

import (
	"sort"
	"strconv"
	"sync"
	"time"

	"pogo/internal/obs"
	"pogo/internal/xmpp"
)

// XMPPMessenger adapts an xmpp.Client to the Messenger interface, adding the
// automatic reconnection the paper describes (§4.6: Pogo detects interface
// changes and reconnects; stale sessions are displaced server-side).
type XMPPMessenger struct {
	addr, user, pass, resource string
	// retryBase/retryCap bound the exponential reconnect backoff (first
	// attempt after retryBase, doubling up to retryCap).
	retryBase, retryCap time.Duration

	mu         sync.Mutex
	client     *xmpp.Client
	closed     bool
	online     bool
	peers      map[string]bool
	onReceive  func(from string, payload []byte)
	onOnline   []func()
	onPresence []func(peer string, online bool)
	nextID     int
	wg         sync.WaitGroup
	closing    chan struct{} // closed by Close: wakes a reconnect backoff

	// Instruments; nil (no-op) until Instrument is called.
	connects   *obs.Counter
	reconnects *obs.Counter
	sends      *obs.Counter
	sendErrs   *obs.Counter
	recvs      *obs.Counter
	sentBytes  *obs.Counter
	recvBytes  *obs.Counter
}

// Instrument attaches the messenger to a metrics registry, labeling its
// metrics with the local user name. Call before traffic flows.
func (m *XMPPMessenger) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	l := obs.L("node", m.user)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.connects = reg.Counter("xmpp_connects_total", l)
	m.reconnects = reg.Counter("xmpp_reconnects_total", l)
	m.sends = reg.Counter("xmpp_stanzas_sent_total", l)
	m.sendErrs = reg.Counter("xmpp_send_errors_total", l)
	m.recvs = reg.Counter("xmpp_stanzas_received_total", l)
	m.sentBytes = reg.Counter("xmpp_bytes_sent_total", l)
	m.recvBytes = reg.Counter("xmpp_bytes_received_total", l)
	// DialXMPP connects before the caller can instrument; count the
	// connection that is already up so connects ≥ 1 on a live messenger.
	if m.online {
		m.connects.Inc()
	}
}

var _ Messenger = (*XMPPMessenger)(nil)
var _ TraceSender = (*XMPPMessenger)(nil)
var _ BatchSender = (*XMPPMessenger)(nil)

// DialXMPP connects to the switchboard and returns a reconnecting messenger.
func DialXMPP(addr, user, pass, resource string) (*XMPPMessenger, error) {
	m := &XMPPMessenger{
		addr: addr, user: user, pass: pass, resource: resource,
		retryBase: 2 * time.Second, retryCap: 30 * time.Second,
		peers:   make(map[string]bool),
		closing: make(chan struct{}),
	}
	if err := m.connect(); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *XMPPMessenger) connect() error {
	c, err := xmpp.Dial(m.addr, m.user, m.pass, m.resource)
	if err != nil {
		return err
	}
	c.OnMessageRaw(func(from xmpp.JID, _ string, body []byte) {
		m.mu.Lock()
		fn := m.onReceive
		recvs, recvBytes := m.recvs, m.recvBytes
		m.mu.Unlock()
		recvs.Inc()
		recvBytes.Add(int64(len(body)))
		if fn != nil {
			fn(from.User(), body)
		}
	})
	c.OnPresence(func(peer xmpp.JID, online bool) {
		m.mu.Lock()
		if online {
			// An association made after connect arrives as presence.
			m.peers[peer.User()] = true
		}
		handlers := make([]func(string, bool), len(m.onPresence))
		copy(handlers, m.onPresence)
		m.mu.Unlock()
		for _, fn := range handlers {
			fn(peer.User(), online)
		}
	})
	c.OnDisconnect(func(error) {
		m.mu.Lock()
		m.online = false
		closed := m.closed
		if !closed {
			m.wg.Add(1)
			go m.reconnectLoop()
		}
		m.mu.Unlock()
	})

	m.mu.Lock()
	if m.closed {
		// Close ran while the dial was in flight and has nothing to close
		// but the previous client: this one is ours to tear down.
		m.mu.Unlock()
		c.Close()
		return ErrOffline
	}
	m.client = c
	wasOnline := m.online
	m.online = true
	handlers := make([]func(), len(m.onOnline))
	copy(handlers, m.onOnline)
	m.connects.Inc()
	m.mu.Unlock()

	if roster, err := c.Roster(); err == nil {
		m.mu.Lock()
		for _, j := range roster {
			m.peers[j.User()] = true
		}
		m.mu.Unlock()
	}
	if !wasOnline {
		for _, fn := range handlers {
			fn()
		}
	}
	return nil
}

func (m *XMPPMessenger) reconnectLoop() {
	defer m.wg.Done()
	delay := m.retryBase
	for {
		m.mu.Lock()
		closed := m.closed
		m.mu.Unlock()
		if closed {
			return
		}
		if err := m.connect(); err == nil {
			m.mu.Lock()
			m.reconnects.Inc()
			m.mu.Unlock()
			return
		}
		// Capped exponential backoff: a dead switchboard must not be
		// hammered by every phone at once.
		wait := time.NewTimer(delay)
		select {
		case <-wait.C:
		case <-m.closing:
			wait.Stop()
			return
		}
		if delay *= 2; delay > m.retryCap {
			delay = m.retryCap
		}
	}
}

// LocalID implements Messenger.
func (m *XMPPMessenger) LocalID() string { return m.user }

// Online implements Messenger.
func (m *XMPPMessenger) Online() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.online && !m.closed
}

// Send implements Messenger. Payloads travel verbatim in binary message
// frames.
func (m *XMPPMessenger) Send(to string, payload []byte) error {
	return m.send(to, payload, "")
}

// SendTraced implements TraceSender: the batch's trace IDs are stamped on the
// stanza's t attribute so the switchboard can record route/offline/replay
// hops without parsing the opaque envelope.
func (m *XMPPMessenger) SendTraced(to string, payload []byte, traces []obs.TraceID) error {
	return m.send(to, payload, xmpp.TraceAttr(traces))
}

func (m *XMPPMessenger) send(to string, payload []byte, trace string) error {
	m.mu.Lock()
	c := m.client
	online := m.online && !m.closed
	m.nextID++
	id := strconv.Itoa(m.nextID)
	sends, sendErrs, sentBytes := m.sends, m.sendErrs, m.sentBytes
	m.mu.Unlock()
	if !online || c == nil {
		sendErrs.Inc()
		return ErrOffline
	}
	if err := c.SendMessageBytes(xmpp.MakeJID(to), id, payload, trace); err != nil {
		sendErrs.Inc()
		return err
	}
	sends.Inc()
	sentBytes.Add(int64(len(payload)))
	return nil
}

// SendBatch implements BatchSender: every destination's envelope is framed
// into one pooled buffer and written with a single conn.Write, collapsing a
// flush's per-destination syscalls (and, under the paper's 3G traffic model,
// radio wake-ups) into one. Returns the accepted prefix on a short write.
func (m *XMPPMessenger) SendBatch(batch []Outgoing) (int, error) {
	m.mu.Lock()
	c := m.client
	online := m.online && !m.closed
	ids := make([]string, len(batch))
	for i := range batch {
		m.nextID++
		ids[i] = strconv.Itoa(m.nextID)
	}
	sends, sendErrs, sentBytes := m.sends, m.sendErrs, m.sentBytes
	m.mu.Unlock()
	if !online || c == nil {
		sendErrs.Add(int64(len(batch)))
		return 0, ErrOffline
	}
	msgs := make([]xmpp.RawMessage, len(batch))
	for i, o := range batch {
		msgs[i] = xmpp.RawMessage{
			To:    xmpp.MakeJID(o.To),
			ID:    ids[i],
			Body:  o.Payload,
			Trace: xmpp.TraceAttr(o.Traces),
		}
	}
	n, err := c.SendMessages(msgs)
	sends.Add(int64(n))
	var acceptedBytes int64
	for _, o := range batch[:n] {
		acceptedBytes += int64(len(o.Payload))
	}
	sentBytes.Add(acceptedBytes)
	if err != nil {
		sendErrs.Add(int64(len(batch) - n))
	}
	return n, err
}

// OnReceive implements Messenger.
func (m *XMPPMessenger) OnReceive(fn func(from string, payload []byte)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.onReceive = fn
}

// OnOnline implements Messenger.
func (m *XMPPMessenger) OnOnline(fn func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.onOnline = append(m.onOnline, fn)
}

// OnPresence implements Messenger.
func (m *XMPPMessenger) OnPresence(fn func(peer string, online bool)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.onPresence = append(m.onPresence, fn)
}

// Peers implements Messenger: the roster fetched at connect time plus every
// contact seen available since, sorted.
func (m *XMPPMessenger) Peers() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.peers))
	for p := range m.peers {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Close disconnects permanently.
func (m *XMPPMessenger) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	close(m.closing)
	c := m.client
	m.mu.Unlock()
	if c != nil {
		c.Close()
	}
	m.wg.Wait()
}
