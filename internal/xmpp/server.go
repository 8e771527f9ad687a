package xmpp

import (
	"encoding/xml"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"pogo/internal/obs"
)

// ServerConfig configures a switchboard server.
type ServerConfig struct {
	// Addr is the TCP listen address; ":0" picks a free port.
	Addr string
	// AllowAutoRegister creates accounts on first login — the paper's
	// zero-registration participation model (§3.3): install and go.
	AllowAutoRegister bool
	// HandshakeTimeout bounds the stream-open + auth exchange. Default 10 s.
	HandshakeTimeout time.Duration
	// OfflineQueue enables session resumption: up to this many message
	// stanzas per user are buffered while the user has no live session (or
	// their session proves stale mid-delivery) and replayed when the next
	// session authenticates. When full, the oldest stanza is dropped. 0
	// keeps the legacy behavior: messages to offline users bounce
	// immediately.
	OfflineQueue int
	// Obs, when non-nil, receives the switchboard's metrics: live sessions,
	// stanzas routed, bounces, auth failures, offline-queue activity.
	Obs *obs.Registry
}

// Server is the central XMPP switchboard. It only routes: all application
// semantics live in the Pogo nodes (§3.1, "a central server acting only as a
// communications switchboard"). The zero value is not usable; construct with
// NewServer and call Start.
type Server struct {
	cfg ServerConfig

	mu       sync.Mutex
	ln       net.Listener
	accounts map[string]string          // user → password
	rosters  map[string]map[string]bool // user → contact users
	sessions map[string]*session        // user → live session (one resource per user)
	queues   map[string][]message       // user → messages awaiting session resumption
	closed   bool
	wg       sync.WaitGroup

	// Instruments; nil (no-op) when cfg.Obs is nil.
	obsSessions   *obs.Gauge
	obsRouted     *obs.Counter
	obsBounced    *obs.Counter
	obsAuthFails  *obs.Counter
	obsQueued     *obs.Counter
	obsResumed    *obs.Counter
	obsQueueDrops *obs.Counter
	spans         *obs.SpanStore // nil when cfg.Obs is nil
}

// switchboardNode is the span node name the server records hops under: the
// switchboard is a single central entity, not a Pogo node.
const switchboardNode = "switchboard"

// recordHops records one causal hop per trace ID carried in a frame's trace
// field. The switchboard serves real clients over TCP and has no
// simulated clock, so hops are stamped with wall time.
func (s *Server) recordHops(stage obs.Stage, traceAttr, detail string) {
	if s.spans == nil || traceAttr == "" {
		return
	}
	at := time.Now()
	for _, tr := range ParseTraceAttr(traceAttr) {
		s.spans.Record(at, tr, stage, switchboardNode, "", 0, detail)
	}
}

// NewServer returns an unstarted server.
func NewServer(cfg ServerConfig) *Server {
	if cfg.HandshakeTimeout == 0 {
		cfg.HandshakeTimeout = 10 * time.Second
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	s := &Server{
		cfg:      cfg,
		accounts: make(map[string]string),
		rosters:  make(map[string]map[string]bool),
		sessions: make(map[string]*session),
		queues:   make(map[string][]message),
	}
	if reg := cfg.Obs; reg != nil {
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

// AddAccount registers (or updates) an account.
func (s *Server) AddAccount(user, password string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.accounts[user] = password
}

// Associate links a researcher and a device owner in both rosters — the
// administrator's broker role (§3.1): it decides which devices are assigned
// to which researchers.
func (s *Server) Associate(a, b string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.associateLocked(a, b)
}

func (s *Server) associateLocked(a, b string) {
	if s.rosters[a] == nil {
		s.rosters[a] = make(map[string]bool)
	}
	if s.rosters[b] == nil {
		s.rosters[b] = make(map[string]bool)
	}
	s.rosters[a][b] = true
	s.rosters[b][a] = true
}

// Dissociate removes a researcher↔device association.
func (s *Server) Dissociate(a, b string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.rosters[a], b)
	delete(s.rosters[b], a)
}

// Roster returns a user's contacts, sorted.
func (s *Server) Roster(user string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.rosters[user]))
	for c := range s.rosters[user] {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Online reports whether a user has a live session.
func (s *Server) Online(user string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[user] != nil
}

// Start begins listening and serving. It returns once the listener is bound.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("xmpp: listen: %w", err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("xmpp: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

// Addr returns the bound listen address (valid after Start).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener and tears down all sessions.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ln := s.ln
	var conns []net.Conn
	for _, sess := range s.sessions {
		conns = append(conns, sess.conn)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// session is one authenticated client connection.
type session struct {
	user string
	jid  JID
	conn net.Conn

	writeMu sync.Mutex
}

func (sess *session) send(v any) error {
	sess.writeMu.Lock()
	defer sess.writeMu.Unlock()
	return writeStanza(sess.conn, v)
}

// sendMessage writes a message as a binary frame.
func (sess *session) sendMessage(m *message) error {
	bp := getWireBuf()
	buf := appendFrame((*bp)[:0], m.To, m.From, m.ID, m.T, m.Body)
	sess.writeMu.Lock()
	_, err := sess.conn.Write(buf)
	sess.writeMu.Unlock()
	putWireBuf(bp, buf)
	return err
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	sr := newStanzaReader(conn)
	conn.SetDeadline(time.Now().Add(s.cfg.HandshakeTimeout))

	// Stream open.
	_, isFrame, line, err := sr.next()
	if err != nil || isFrame {
		return
	}
	hdr, ok := parseStreamHeader(line)
	if !ok {
		return
	}
	if _, err := conn.Write(streamOpenLine("from", Domain)); err != nil {
		return
	}
	if hdr.Bin != streamBinAttr {
		// Version check: messages travel as binary frames only.
		writeStanza(conn, failureStanza{Reason: reasonWireVersion})
		return
	}

	// Authentication.
	_, isFrame, line, err = sr.next()
	if err != nil || isFrame || elementName(line) != "auth" {
		return
	}
	var auth authStanza
	if err := xml.Unmarshal(line, &auth); err != nil {
		return
	}
	sess, failReason := s.authenticate(&auth, conn)
	if sess == nil {
		writeStanza(conn, failureStanza{Reason: failReason})
		return
	}
	conn.SetDeadline(time.Time{})
	// authenticate returned with sess.writeMu held: the session is already
	// visible to other sessions' presence broadcasts, and none of them may
	// overtake the success stanza the client's handshake is waiting for.
	err = writeStanza(conn, successStanza{JID: sess.jid.String()})
	sess.writeMu.Unlock()
	if err != nil {
		s.dropSession(sess)
		return
	}
	s.broadcastPresence(sess.user, true)
	s.sendInitialPresence(sess)
	s.replayQueued(sess)

	defer func() {
		s.dropSession(sess)
		s.broadcastPresence(sess.user, false)
	}()

	// Stanza loop.
	for {
		m, isFrame, line, err := sr.next()
		if err != nil {
			return
		}
		if isFrame {
			s.routeMessage(sess, m)
			continue
		}
		switch elementName(line) {
		case "iq":
			var iq iqStanza
			if err := xml.Unmarshal(line, &iq); err != nil {
				return
			}
			s.handleIQ(sess, iq)
		case "presence":
			var p presenceStanza
			if err := xml.Unmarshal(line, &p); err != nil {
				return
			}
			// Explicit unavailable presence ends the session politely.
			if p.Type == "unavailable" {
				return
			}
		case "", "message":
			// Not a stanza line at all, or a message outside a binary frame:
			// protocol violation, hang up.
			return
		default:
			// Unknown stanza kinds are skipped, as the streaming decoder did.
		}
	}
}

func (s *Server) authenticate(auth *authStanza, conn net.Conn) (*session, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, "server-shutting-down"
	}
	pw, ok := s.accounts[auth.User]
	switch {
	case !ok && s.cfg.AllowAutoRegister:
		s.accounts[auth.User] = auth.Password
	case !ok:
		s.obsAuthFails.Inc()
		return nil, "no-such-account"
	case pw != auth.Password:
		s.obsAuthFails.Inc()
		return nil, "bad-credentials"
	}
	if old := s.sessions[auth.User]; old != nil {
		// Resource conflict: newest connection wins (phone reconnecting
		// after an interface change before the server noticed the old TCP
		// session died).
		old.conn.Close()
	}
	resource := auth.Resource
	if resource == "" {
		resource = "pogo"
	}
	sess := &session{
		user: auth.User,
		jid:  JID(auth.User + "@" + Domain + "/" + resource),
		conn: conn,
	}
	sess.writeMu.Lock() // released by serveConn once success is written
	s.sessions[auth.User] = sess
	s.obsSessions.Set(float64(len(s.sessions)))
	return sess, ""
}

func (s *Server) dropSession(sess *session) {
	s.mu.Lock()
	if s.sessions[sess.user] == sess {
		delete(s.sessions, sess.user)
	}
	s.obsSessions.Set(float64(len(s.sessions)))
	s.mu.Unlock()
}

// routeMessage delivers to the recipient's live session, or bounces an error
// stanza: XMPP-level delivery is best-effort (Pogo adds end-to-end acks).
// With OfflineQueue enabled, messages for offline (or stale-session) users
// are buffered for session resumption instead of bounced.
func (s *Server) routeMessage(from *session, m message) {
	toUser := JID(m.To).User()
	s.mu.Lock()
	dst := s.sessions[toUser]
	allowed := s.rosters[from.user][toUser] || from.user == toUser
	s.mu.Unlock()
	m.From = from.jid.Bare().String()
	if !allowed {
		s.bounce(from, m.ID, "not-on-roster")
		return
	}
	if dst == nil {
		if s.cfg.OfflineQueue > 0 {
			s.queueOffline(toUser, m)
			return
		}
		s.bounce(from, m.ID, "recipient-offline")
		return
	}
	if err := dst.sendMessage(&m); err != nil {
		// The recipient's TCP session went stale underneath us (§4.6's
		// interface-handover failure).
		if s.cfg.OfflineQueue > 0 {
			s.queueOffline(toUser, m)
			return
		}
		s.bounce(from, m.ID, "delivery-failed")
		return
	}
	s.obsRouted.Inc()
	s.recordHops(obs.StageRoute, m.T, "to="+toUser)
}

func (s *Server) bounce(from *session, id, reason string) {
	s.obsBounced.Inc()
	from.send(messageStanza{
		From: Domain, To: from.jid.String(), ID: id,
		Type: "error", Body: reason,
	})
}

// queueOffline buffers m for user until their next session, dropping the
// oldest stanza when the queue is full.
func (s *Server) queueOffline(user string, m message) {
	dropped := false
	s.mu.Lock()
	q := s.queues[user]
	if len(q) >= s.cfg.OfflineQueue {
		q = q[1:]
		dropped = true
	}
	s.queues[user] = append(q, m)
	s.mu.Unlock()
	s.obsQueued.Inc()
	if dropped {
		s.obsQueueDrops.Inc()
	}
	s.recordHops(obs.StageOffline, m.T, "user="+user)
}

// replayQueued resumes a fresh session: stanzas queued while the user was
// offline are delivered in arrival order. If the session dies mid-replay the
// remainder waits for the next one.
func (s *Server) replayQueued(sess *session) {
	s.mu.Lock()
	queued := s.queues[sess.user]
	delete(s.queues, sess.user)
	s.mu.Unlock()
	for i, m := range queued {
		if err := sess.sendMessage(&m); err != nil {
			s.mu.Lock()
			s.queues[sess.user] = append(queued[i:], s.queues[sess.user]...)
			s.mu.Unlock()
			return
		}
		s.obsResumed.Inc()
		s.recordHops(obs.StageReplay, m.T, "user="+sess.user)
	}
}

func (s *Server) handleIQ(sess *session, iq iqStanza) {
	if iq.Type != "get" || iq.Roster == nil {
		return
	}
	contacts := s.Roster(sess.user)
	items := make([]rosterItem, 0, len(contacts))
	for _, c := range contacts {
		items = append(items, rosterItem{JID: MakeJID(c).String()})
	}
	sess.send(iqStanza{Type: "result", ID: iq.ID, Roster: &rosterQuery{Items: items}})
}

// broadcastPresence tells every online roster contact about user's change.
func (s *Server) broadcastPresence(user string, available bool) {
	typ := "available"
	if !available {
		typ = "unavailable"
	}
	s.mu.Lock()
	var peers []*session
	for contact := range s.rosters[user] {
		if p := s.sessions[contact]; p != nil {
			peers = append(peers, p)
		}
	}
	s.mu.Unlock()
	for _, p := range peers {
		p.send(presenceStanza{From: MakeJID(user).String(), Type: typ})
	}
}

// sendInitialPresence tells a fresh session which roster contacts are
// already online.
func (s *Server) sendInitialPresence(sess *session) {
	s.mu.Lock()
	var online []string
	for contact := range s.rosters[sess.user] {
		if s.sessions[contact] != nil {
			online = append(online, contact)
		}
	}
	s.mu.Unlock()
	sort.Strings(online)
	for _, c := range online {
		sess.send(presenceStanza{From: MakeJID(c).String(), Type: "available"})
	}
}
