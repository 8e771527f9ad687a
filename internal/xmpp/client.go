package xmpp

import (
	"encoding/xml"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"pogo/internal/obs"
)

// Client is a Pogo node's connection to the switchboard server. The zero
// value is not usable; construct with Dial. Incoming stanzas are dispatched
// on a dedicated reader goroutine; handlers must not block for long.
type Client struct {
	jid  JID
	conn net.Conn
	// sr is set during the handshake; afterwards only the reader goroutine
	// touches it.
	sr *stanzaReader

	// writeMu serializes writes to conn. Under it, wbuf is the frame
	// buffer the sends render into and ends SendMessages' frame ends.
	writeMu sync.Mutex
	wbuf    []byte
	ends    []int

	mu           sync.Mutex
	closed       bool
	err          error
	onMessageRaw func(from JID, id string, body []byte)
	backlog      []Stanza // arrived before OnMessageRaw was registered
	onError      func(id, reason string)
	onPresence   func(peer JID, available bool)
	onDisconnect func(err error)
	rosterWait   map[string]chan []JID
	nextIQ       int

	done chan struct{}
}

// RawMessage is one message in a coalesced SendMessages batch, in the form
// its frame is rendered from without allocating: the recipient's user name
// (the frame addresses MakeJID(To)), a numeric stanza id, and the batch's
// trace IDs (the frame's trace field, as TraceAttr renders them).
type RawMessage struct {
	To     string
	ID     uint64
	Body   []byte
	Traces []obs.TraceID
}

// Dial connects, authenticates, and starts the reader. resource defaults to
// "pogo".
func Dial(addr, user, password, resource string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("xmpp: dial %s: %w", addr, err)
	}
	c := &Client{
		conn:       conn,
		rosterWait: make(map[string]chan []JID),
		done:       make(chan struct{}),
	}
	if err := c.handshake(user, password, resource); err != nil {
		conn.Close()
		return nil, err
	}
	go c.readLoop()
	return c, nil
}

func (c *Client) handshake(user, password, resource string) error {
	c.conn.SetDeadline(time.Now().Add(10 * time.Second))
	defer c.conn.SetDeadline(time.Time{})
	if _, err := c.conn.Write(streamOpenLine("to", domain)); err != nil {
		return fmt.Errorf("xmpp: stream open: %w", err)
	}
	sr := newStanzaReader(c.conn)
	_, isFrame, line, err := sr.next()
	if err != nil {
		return fmt.Errorf("xmpp: server stream: %w", err)
	}
	hdr, ok := streamHeader{}, false
	if !isFrame {
		hdr, ok = parseStreamHeader(line)
	}
	if !ok {
		return errors.New("xmpp: server stream: not an xmpp greeting")
	}
	if hdr.Bin != streamBinAttr {
		return fmt.Errorf("xmpp: server stream: %s (header lacks bin=%q)", reasonWireVersion, streamBinAttr)
	}
	if err := c.write(authStanza{User: user, Password: password, Resource: resource}); err != nil {
		return err
	}
	_, isFrame, line, err = sr.next()
	if err != nil {
		return fmt.Errorf("xmpp: auth response: %w", err)
	}
	if isFrame {
		return errors.New("xmpp: unexpected frame during auth")
	}
	switch elementName(line) {
	case "success":
		var s successStanza
		if err := xml.Unmarshal(line, &s); err != nil {
			return err
		}
		c.jid = JID(s.JID)
	case "failure":
		var f failureStanza
		if err := xml.Unmarshal(line, &f); err != nil {
			return err
		}
		return fmt.Errorf("xmpp: auth failed: %s", f.Reason)
	default:
		return fmt.Errorf("xmpp: unexpected <%s> during auth", elementName(line))
	}
	c.sr = sr
	return nil
}

// OnMessageRaw sets the inbound message handler. The body slice is freshly
// allocated per message and owned by the handler. Messages that arrived
// before the handler was registered — e.g. stanzas the server replayed the
// moment this session resumed — are delivered to it immediately, in arrival
// order.
func (c *Client) OnMessageRaw(fn func(from JID, id string, body []byte)) {
	c.mu.Lock()
	c.onMessageRaw = fn
	backlog := c.backlog
	c.backlog = nil
	c.mu.Unlock()
	for i := range backlog {
		fn(JID(backlog[i].From), backlog[i].ID, backlog[i].Body)
	}
}

// OnPresence sets the roster-contact availability handler.
func (c *Client) OnPresence(fn func(peer JID, available bool)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onPresence = fn
}

// OnDisconnect sets a handler invoked once when the connection dies.
func (c *Client) OnDisconnect(fn func(err error)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onDisconnect = fn
}

// SendMessageBytes sends a message with an arbitrary byte body, which travels
// verbatim in a binary frame; delivery is best-effort at this layer. A
// non-empty trace (TraceAttr's binary form) lets the switchboard record
// causal hops.
func (c *Client) SendMessageBytes(to JID, id string, body []byte, trace string) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	buf := appendFrame(c.wbuf[:0], to.String(), "", id, trace, body)
	_, err := c.conn.Write(buf)
	c.wbuf = keepWriteBuf(buf)
	return err
}

// SendMessages coalesces a whole batch into one conn.Write — one syscall and
// one TCP segment train per flush instead of one per destination. It returns
// how many messages (a strict prefix) were fully written; on a mid-batch
// connection cut the remainder was never accepted and the caller's
// retransmission machinery re-sends it.
func (c *Client) SendMessages(msgs []RawMessage) (int, error) {
	if len(msgs) == 0 {
		return 0, nil
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	buf, ends := c.wbuf[:0], c.ends[:0]
	for i := range msgs {
		buf = appendRawFrame(buf, &msgs[i])
		ends = append(ends, len(buf))
	}
	c.ends = ends
	n, err := c.conn.Write(buf)
	c.wbuf = keepWriteBuf(buf)
	if err == nil {
		return len(msgs), nil
	}
	k := 0
	for k < len(msgs) && ends[k] <= n {
		k++
	}
	return k, err
}

// Roster fetches the user's contact list from the server.
func (c *Client) Roster() ([]JID, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("xmpp: client closed")
	}
	c.nextIQ++
	id := "iq-" + strconv.Itoa(c.nextIQ)
	ch := make(chan []JID, 1)
	c.rosterWait[id] = ch
	c.mu.Unlock()

	if err := c.write(iqStanza{Type: "get", ID: id, Roster: &rosterQuery{}}); err != nil {
		return nil, err
	}
	select {
	case items := <-ch:
		return items, nil
	case <-c.done:
		return nil, errors.New("xmpp: disconnected")
	case <-time.After(10 * time.Second):
		return nil, errors.New("xmpp: roster timeout")
	}
}

// Close tears down the connection.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	c.write(presenceStanza{Type: "unavailable"})
	c.conn.Close()
	<-c.done
}

func (c *Client) write(v any) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return writeStanza(c.conn, v)
}

// dispatchMessage hands a frame to the message handler, or holds it for
// one. The frame views the reader's buffer, so it is made the handler's own
// first: its one allocation.
func (c *Client) dispatchMessage(m Stanza) {
	m = m.owned()
	c.mu.Lock()
	onRaw := c.onMessageRaw
	if onRaw == nil && len(c.backlog) < 256 {
		// No handler yet (session-resumption replay races handler
		// registration): hold the message for OnMessageRaw.
		c.backlog = append(c.backlog, m)
	}
	c.mu.Unlock()
	if onRaw != nil {
		onRaw(JID(m.From), m.ID, m.Body)
	}
}

func (c *Client) readLoop() {
	defer close(c.done)
	var loopErr error
	for {
		m, isFrame, line, err := c.sr.next()
		if err != nil {
			loopErr = err
			break
		}
		if isFrame {
			c.dispatchMessage(m)
			continue
		}
		switch name := elementName(line); name {
		case "message":
			// The one XML message is the server's type="error" bounce.
			var b messageStanza
			if err := xml.Unmarshal(line, &b); err != nil {
				loopErr = err
				break
			}
			c.mu.Lock()
			fn := c.onError
			c.mu.Unlock()
			if b.Type == "error" && fn != nil {
				fn(b.ID, b.Body)
			}
		case "presence":
			var p presenceStanza
			if err := xml.Unmarshal(line, &p); err != nil {
				loopErr = err
				break
			}
			c.mu.Lock()
			fn := c.onPresence
			c.mu.Unlock()
			if fn != nil {
				fn(JID(p.From), p.Type != "unavailable")
			}
		case "iq":
			var iq iqStanza
			if err := xml.Unmarshal(line, &iq); err != nil {
				loopErr = err
				break
			}
			if iq.Type == "result" && iq.Roster != nil {
				items := make([]JID, 0, len(iq.Roster.Items))
				for _, it := range iq.Roster.Items {
					items = append(items, JID(it.JID))
				}
				c.mu.Lock()
				ch := c.rosterWait[iq.ID]
				delete(c.rosterWait, iq.ID)
				c.mu.Unlock()
				if ch != nil {
					ch <- items
				}
			}
		case "":
			loopErr = errors.New("xmpp: malformed stanza line")
		default:
			// Unknown stanza kinds are skipped, as the streaming decoder did.
		}
		if loopErr != nil {
			break
		}
	}
	c.mu.Lock()
	wasClosed := c.closed
	c.closed = true
	fn := c.onDisconnect
	c.err = loopErr
	c.mu.Unlock()
	c.conn.Close()
	if fn != nil && !wasClosed {
		fn(loopErr)
	}
}
