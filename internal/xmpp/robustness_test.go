package xmpp

import (
	"bytes"
	"encoding/xml"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pogo/internal/faultnet"
	"pogo/internal/obs"
)

// rawConn dials the server without speaking the protocol.
func rawConn(t *testing.T, s *Server) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestServerSurvivesGarbageBytes(t *testing.T) {
	s := startServer(t, ServerConfig{AllowAutoRegister: true, HandshakeTimeout: 200 * time.Millisecond})
	for _, garbage := range []string{
		"\x00\x01\x02\x03\xff\xfe",
		"GET / HTTP/1.1\r\nHost: x\r\n\r\n",
		"<not-a-stream/>",
		"<stream><auth user='x' password", // truncated
		"<stream>" + string(make([]byte, 64*1024)),
	} {
		c := rawConn(t, s)
		c.Write([]byte(garbage))
		// The server must drop the connection without dying.
		buf := make([]byte, 256)
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		for {
			if _, err := c.Read(buf); err != nil {
				break
			}
		}
	}
	// And still serve legitimate clients.
	c := dial(t, s, "alice", "pw")
	if c.jid.User() != "alice" {
		t.Errorf("JID = %s", c.jid)
	}
}

func TestServerHandshakeTimeout(t *testing.T) {
	s := startServer(t, ServerConfig{AllowAutoRegister: true, HandshakeTimeout: 100 * time.Millisecond})
	c := rawConn(t, s)
	// Open the stream and then stall before auth: the server must hang up.
	c.Write(streamOpenLine("to", domain))
	buf := make([]byte, 256)
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	closed := false
	for i := 0; i < 10; i++ {
		if _, err := c.Read(buf); err != nil {
			closed = true
			break
		}
	}
	if !closed {
		t.Error("stalled handshake not dropped")
	}
}

// Close hangs up connections that never finished the handshake too, rather
// than waiting out their HandshakeTimeout (10 s by default).
func TestCloseHangsUpSilentClient(t *testing.T) {
	s := NewServer(ServerConfig{AllowAutoRegister: true})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	c := rawConn(t, s)
	// A half-open handshake: the server's greeting proves it accepted the
	// connection, and the client then goes quiet before auth.
	c.Write(streamOpenLine("to", domain))
	if _, err := c.Read(make([]byte, 256)); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	s.Close()
	if d := time.Since(t0); d > 200*time.Millisecond {
		t.Errorf("Close took %v with a client mid-handshake, want < 200ms", d)
	}
}

func TestServerUnknownStanzaSkipped(t *testing.T) {
	s := startServer(t, ServerConfig{AllowAutoRegister: true})
	s.Associate("a", "b")
	a := dial(t, s, "a", "pw")
	b := dial(t, s, "b", "pw")
	got := make(chan string, 1)
	b.OnMessageRaw(func(_ JID, _ string, body []byte) { got <- string(body) })

	// Inject an unknown stanza directly, then a legitimate message: the
	// server must skip the former and route the latter.
	a.write(struct {
		XMLName struct{} `xml:"weird"`
		Data    string   `xml:"data"`
	}{Data: "???"})
	a.SendMessageBytes(MakeJID("b"), "m1", []byte("still-works"), "")
	select {
	case body := <-got:
		if body != "still-works" {
			t.Errorf("body = %q", body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message after unknown stanza never arrived")
	}
}

// collectBodies registers a message collector on c and returns an accessor.
func collectBodies(c *Client) func() []string {
	var mu sync.Mutex
	var got []string
	c.OnMessageRaw(func(_ JID, _ string, body []byte) {
		mu.Lock()
		got = append(got, string(body))
		mu.Unlock()
	})
	return func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), got...)
	}
}

// Session resumption: messages sent while the recipient is offline are
// queued and replayed, in order, when the next session authenticates.
func TestOfflineQueueResumesSession(t *testing.T) {
	reg := obs.NewRegistry()
	s := startServer(t, ServerConfig{AllowAutoRegister: true, Obs: reg})
	s.Associate("r", "d")
	r := dial(t, s, "r", "pw")
	bounced := make(chan string, 4)
	r.OnError(func(id, reason string) { bounced <- reason })

	for _, body := range []string{"m1", "m2", "m3"} {
		if err := r.SendMessageBytes(MakeJID("d"), body, []byte(body), ""); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "stanzas queued", func() bool {
		return reg.CounterValue("xmpp_server_queued_total") == 3
	})
	select {
	case reason := <-bounced:
		t.Fatalf("queued message bounced: %s", reason)
	default:
	}

	d := dial(t, s, "d", "pw")
	got := collectBodies(d)
	waitFor(t, "resumed replay", func() bool { return len(got()) == 3 })
	if g := got(); g[0] != "m1" || g[1] != "m2" || g[2] != "m3" {
		t.Errorf("replayed out of order: %v", g)
	}
	if reg.CounterValue("xmpp_server_resumed_total") != 3 {
		t.Errorf("resumed counter = %d", reg.CounterValue("xmpp_server_resumed_total"))
	}
}

// rawLogin logs user in over a connection the test reads itself, and
// returns the reader the user's stanzas arrive on.
func rawLogin(t *testing.T, s *Server, user string) *stanzaReader {
	t.Helper()
	c := rawConn(t, s)
	c.SetDeadline(time.Now().Add(5 * time.Second))
	auth := `<auth user="` + user + `" password="pw" resource="raw"></auth>` + "\n"
	if _, err := c.Write(append(streamOpenLine("to", domain), auth...)); err != nil {
		t.Fatal(err)
	}
	sr := newStanzaReader(c)
	for _, want := range []string{"stream", "success"} {
		if _, isFrame, line, err := sr.next(); err != nil || isFrame || elementName(line) != want {
			t.Fatalf("login of %s: read %q (frame %v, %v), want <%s>", user, line, isFrame, err, want)
		}
	}
	return sr
}

// The server reads every frame of a connection into one buffer, so the
// offline queue must keep copies: a queued stanza still viewing the buffer
// would be overwritten by the frames read after it. Stanzas of several sizes
// — one larger than frameKeep — are queued for an offline user, more frames
// follow on the same connection to a live one, and the offline user's next
// session gets the queued ids, trace fields and bodies byte for byte.
func TestOfflineQueueSurvivesReaderReuse(t *testing.T) {
	reg := obs.NewRegistry()
	s := startServer(t, ServerConfig{AllowAutoRegister: true, Obs: reg})
	s.Associate("r", "d")
	s.Associate("r", "e")
	r := dial(t, s, "r", "pw")
	var queuedStanzas []Stanza
	for i := 0; i < 6; i++ {
		n := 10 + 100*i
		if i == 3 {
			n = 2 * frameKeep
		}
		m := Stanza{
			ID:   strconv.Itoa(1000 + 7*i),
			T:    TraceAttr([]obs.TraceID{obs.TraceID(0x1111 * (i + 1)), obs.TraceID(i + 1)}),
			Body: []byte(strings.Repeat(string(rune('a'+i)), n)),
		}
		if err := r.SendMessageBytes(MakeJID("d"), m.ID, m.Body, m.T); err != nil {
			t.Fatal(err)
		}
		queuedStanzas = append(queuedStanzas, m)
	}
	waitFor(t, "stanzas queued", func() bool {
		return reg.CounterValue("xmpp_server_queued_total") == int64(len(queuedStanzas))
	})

	e := dial(t, s, "e", "pw")
	live := collectBodies(e)
	for i := 0; i < 6; i++ {
		body := []byte(strings.Repeat("z", 5+300*i))
		if err := r.SendMessageBytes(MakeJID("e"), "9", body, TraceAttr([]obs.TraceID{99})); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "live frames routed over the queued ones", func() bool { return len(live()) == 6 })

	sr := rawLogin(t, s, "d")
	for i, want := range queuedStanzas {
		m, isFrame, _, err := sr.next()
		for err == nil && !isFrame {
			m, isFrame, _, err = sr.next()
		}
		if err != nil {
			t.Fatalf("replayed stanza %d: %v", i, err)
		}
		if m.From != "r@pogo" || m.ID != want.ID || m.T != want.T || !bytes.Equal(m.Body, want.Body) {
			t.Fatalf("replayed stanza %d: from %q id %q trace %x, %d body bytes; want id %q trace %x, %d body bytes",
				i, m.From, m.ID, m.T, len(m.Body), want.ID, want.T, len(want.Body))
		}
	}
}

// The offline queue is bounded: when full, the oldest stanza gives way.
func TestOfflineQueueBounded(t *testing.T) {
	reg := obs.NewRegistry()
	s := startServer(t, ServerConfig{AllowAutoRegister: true, Obs: reg})
	s.Associate("r", "d")
	r := dial(t, s, "r", "pw")
	for i := 0; i <= queueCap; i++ {
		body := "m" + strconv.Itoa(i)
		r.SendMessageBytes(MakeJID("d"), body, []byte(body), "")
	}
	waitFor(t, "queue overflow accounted", func() bool {
		return reg.CounterValue("xmpp_server_queue_drops_total") == 1
	})
	d := dial(t, s, "d", "pw")
	got := collectBodies(d)
	waitFor(t, "bounded replay", func() bool { return len(got()) == queueCap })
	if g := got(); g[0] != "m1" || g[queueCap-1] != "m"+strconv.Itoa(queueCap) {
		t.Errorf("replay runs %s..%s, want the newest %d", g[0], g[queueCap-1], queueCap)
	}
}

// A session whose TCP connection died underneath the server (the §4.6
// interface-handover race) must not eat messages: the failed delivery is
// queued and resumed by the replacement session.
func TestStaleSessionDeliveryQueues(t *testing.T) {
	s := startServer(t, ServerConfig{AllowAutoRegister: true})
	s.Associate("r", "d")
	r := dial(t, s, "r", "pw")

	// Forge d's stale session: attached, but its connection is already dead.
	c1, c2 := net.Pipe()
	c1.Close()
	c2.Close()
	s.Attach("d", &tcpSession{jid: JID("d@pogo/stale"), conn: c1})

	if err := r.SendMessageBytes(MakeJID("d"), "m1", []byte("behind-stale"), ""); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "failed delivery queued", func() bool { return queued(s.Switchboard, "d") == 1 })

	d := dial(t, s, "d", "pw") // displaces the stale session, resumes the queue
	got := collectBodies(d)
	waitFor(t, "resume after stale session", func() bool { return len(got()) == 1 })
	if g := got(); g[0] != "behind-stale" {
		t.Errorf("resumed %v", g)
	}
}

// End-to-end churn over real sockets: an established session is severed
// mid-stream by the TCP proxy, traffic sent during the outage is queued, and
// a reconnect through the same proxy resumes it.
func TestSessionResumptionAcrossDroppedTCP(t *testing.T) {
	s := startServer(t, ServerConfig{AllowAutoRegister: true})
	s.Associate("r", "d")
	proxy, err := faultnet.NewTCPProxy(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	r := dial(t, s, "r", "pw")
	d1, err := Dial(proxy.Addr(), "d", "pw", "phone")
	if err != nil {
		t.Fatal(err)
	}
	defer d1.Close()
	got1 := collectBodies(d1)
	dead := make(chan struct{})
	d1.OnDisconnect(func(error) { close(dead) })

	r.SendMessageBytes(MakeJID("d"), "live", []byte("live"), "")
	waitFor(t, "live delivery through proxy", func() bool { return len(got1()) == 1 })

	// Churn: the phone's TCP session dies mid-stream.
	proxy.DropConns()
	select {
	case <-dead:
	case <-time.After(5 * time.Second):
		t.Fatal("client never noticed the dropped connection")
	}
	waitFor(t, "server drops the dead session", func() bool { return !s.Online("d") })

	r.SendMessageBytes(MakeJID("d"), "q1", []byte("queued-1"), "")
	r.SendMessageBytes(MakeJID("d"), "q2", []byte("queued-2"), "")
	waitFor(t, "outage traffic queued", func() bool { return queued(s.Switchboard, "d") == 2 })

	// Fresh session through the same proxy: the queue resumes.
	d2, err := Dial(proxy.Addr(), "d", "pw", "phone")
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got2 := collectBodies(d2)
	waitFor(t, "resumption after reconnect", func() bool { return len(got2()) == 2 })
	if g := got2(); g[0] != "queued-1" || g[1] != "queued-2" {
		t.Errorf("resumed %v", g)
	}
}

// Version check, server side: a stream header without bin="2" — none at
// all, or the previous version's bin="1" — gets the server's own header, an
// explicit failure stanza, and a closed connection, before any credentials
// are looked at.
func TestServerRefusesStreamWithoutBin(t *testing.T) {
	s := startServer(t, ServerConfig{AllowAutoRegister: true})
	for _, hdr := range []string{`<stream to="pogo">`, `<stream to="pogo" bin="1">`} {
		c := rawConn(t, s)
		c.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Write([]byte(hdr + "\n" + `<auth user="old" password="pw" resource="r"></auth>` + "\n")); err != nil {
			t.Fatal(err)
		}
		all, err := io.ReadAll(c) // returns only once the server hangs up
		if err != nil {
			t.Fatalf("%s: connection not closed cleanly: %v", hdr, err)
		}
		lines := strings.Split(strings.TrimSpace(string(all)), "\n")
		if len(lines) != 2 || elementName([]byte(lines[0])) != "stream" {
			t.Fatalf("%s: server answered %q, want its stream header then a failure", hdr, all)
		}
		var f failureStanza
		if err := xml.Unmarshal([]byte(lines[1]), &f); err != nil || f.Reason != reasonWireVersion {
			t.Fatalf("%s: refusal = %q (%v), want failure reason %q", hdr, lines[1], err, reasonWireVersion)
		}
		if s.Online("old") {
			t.Errorf("%s: refused peer was given a session", hdr)
		}
	}
}

// Version check, client side: a server whose greeting lacks bin="2" is an
// error from Dial, not a silent downgrade to some other message encoding.
func TestDialRefusesServerWithoutBin(t *testing.T) {
	for _, greeting := range []string{`<stream from="` + domain + `">`, `<stream from="` + domain + `" bin="1">`} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			conn.Write([]byte(greeting + "\n"))
			io.Copy(io.Discard, conn)
		}()
		c, err := Dial(ln.Addr().String(), "alice", "pw", "r")
		ln.Close()
		if err == nil {
			c.Close()
			t.Fatalf("%s: Dial accepted a server that does not announce the wire version", greeting)
		}
		if !strings.Contains(err.Error(), reasonWireVersion) {
			t.Errorf("%s: Dial error %q does not name the version mismatch", greeting, err)
		}
	}
}

// A session is visible to its roster contacts' presence broadcasts from the
// moment it authenticates; none of them may reach the client before the
// success stanza its handshake is waiting for. Fully meshed users logging in
// at once used to fail Dial with "unexpected <presence> during auth".
func TestPresenceNeverOvertakesAuthSuccess(t *testing.T) {
	s := startServer(t, ServerConfig{AllowAutoRegister: true})
	const n = 32
	users := make([]string, n)
	for i := range users {
		users[i] = "u" + strconv.Itoa(i)
		for _, peer := range users[:i] {
			s.Associate(users[i], peer)
		}
	}
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		clients := make([]*Client, n)
		errs := make([]error, n)
		for i, u := range users {
			wg.Add(1)
			go func() {
				defer wg.Done()
				clients[i], errs[i] = Dial(s.Addr(), u, "pw", "r")
			}()
		}
		wg.Wait()
		for i, c := range clients {
			if errs[i] != nil {
				t.Fatalf("round %d: dial %s: %v", round, users[i], errs[i])
			}
			c.Close()
		}
	}
}

func TestClientRejectsWrongServerGreeting(t *testing.T) {
	// A listener that answers with garbage; Dial must fail cleanly.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Write([]byte("SMTP ready\r\n"))
			c.Close()
		}
	}()
	if _, err := Dial(ln.Addr().String(), "u", "p", "r"); err == nil {
		t.Error("Dial accepted a non-XMPP server")
	}
}
