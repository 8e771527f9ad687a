package xmpp

import (
	"encoding/xml"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"pogo/internal/obs"
	"pogo/internal/vclock"
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
	// Obs, when non-nil, receives the switchboard's metrics: live sessions,
	// stanzas routed, bounces, auth failures, offline-queue activity.
	Obs *obs.Registry
}

// Server is the central XMPP switchboard over TCP: the stream header, auth,
// one reader goroutine per connection, and a frame write per delivery. All
// routing state and policy is the embedded Switchboard's. It only routes: all
// application semantics live in the Pogo nodes (§3.1). The zero value is not
// usable; construct with NewServer and call Start.
type Server struct {
	*Switchboard
	cfg ServerConfig

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{} // every accepted connection, handshaking or not
	closed bool
	wg     sync.WaitGroup
}

// NewServer returns an unstarted server.
func NewServer(cfg ServerConfig) *Server {
	if cfg.HandshakeTimeout == 0 {
		cfg.HandshakeTimeout = 10 * time.Second
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	return &Server{
		Switchboard: NewSwitchboard(vclock.Real{}, cfg.Obs),
		cfg:         cfg,
		conns:       make(map[net.Conn]struct{}),
	}
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
	s.wg.Add(1)
	s.mu.Unlock()
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

// Close stops the listener and hangs up every connection, including ones
// still in the handshake, then waits for their goroutines.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			conn.Close()
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// tcpSession is one authenticated client connection: the Sink the
// switchboard writes to.
type tcpSession struct {
	jid  JID
	conn net.Conn

	writeMu sync.Mutex
	success []byte // the auth reply, until it is out
}

// write sends b, behind the auth reply if that has not gone out yet: the
// session is attached (and announced, and replayed to) before serveConn
// writes the reply itself, and nothing may overtake the reply the client's
// handshake waits for.
func (c *tcpSession) write(b []byte) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.success != nil {
		b = append(c.success, b...)
		c.success = nil
	}
	if len(b) == 0 {
		return nil
	}
	_, err := c.conn.Write(b)
	return err
}

func (c *tcpSession) send(v any) error {
	b, err := marshalStanza(v)
	if err != nil {
		return err
	}
	return c.write(append(b, '\n'))
}

// Deliver implements Sink: the stanza goes out as one binary frame.
func (c *tcpSession) Deliver(m Stanza) error {
	bp := getWireBuf()
	buf := appendFrame((*bp)[:0], m.To, m.From, m.ID, m.T, m.Body)
	err := c.write(buf)
	putWireBuf(bp, buf)
	return err
}

// Presence implements Sink.
func (c *tcpSession) Presence(user string, available bool) {
	typ := "available"
	if !available {
		typ = "unavailable"
	}
	c.send(presenceStanza{From: MakeJID(user).String(), Type: typ})
}

// Bounce implements Sink.
func (c *tcpSession) Bounce(m Stanza, reason string) {
	c.send(messageStanza{From: Domain, To: c.jid.String(), ID: m.ID, Type: "error", Body: reason})
}

func (s *Server) serveConn(conn net.Conn) {
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
	if reason := s.Authenticate(auth.User, auth.Password, s.cfg.AllowAutoRegister); reason != "" {
		writeStanza(conn, failureStanza{Reason: reason})
		return
	}
	resource := auth.Resource
	if resource == "" {
		resource = "pogo"
	}
	c := &tcpSession{jid: JID(auth.User + "@" + Domain + "/" + resource), conn: conn}
	if c.success, err = marshalStanza(successStanza{JID: c.jid.String()}); err != nil {
		return
	}
	c.success = append(c.success, '\n')
	conn.SetDeadline(time.Time{})
	if old, ok := s.Attach(auth.User, c).(*tcpSession); ok {
		old.conn.Close()
	}
	defer s.Detach(auth.User, c)
	// The auth reply, unless a presence or replayed stanza carried it already.
	if c.write(nil) != nil {
		return
	}

	// Stanza loop.
	from := c.jid.Bare().String()
	for {
		m, isFrame, line, err := sr.next()
		if err != nil {
			return
		}
		if isFrame {
			m.From = from
			s.Route(auth.User, JID(m.To).User(), m)
			continue
		}
		switch elementName(line) {
		case "iq":
			var iq iqStanza
			if err := xml.Unmarshal(line, &iq); err != nil {
				return
			}
			if iq.Type == "get" && iq.Roster != nil {
				contacts := s.Roster(auth.User)
				items := make([]rosterItem, 0, len(contacts))
				for _, u := range contacts {
					items = append(items, rosterItem{JID: MakeJID(u).String()})
				}
				c.send(iqStanza{Type: "result", ID: iq.ID, Roster: &rosterQuery{Items: items}})
			}
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
