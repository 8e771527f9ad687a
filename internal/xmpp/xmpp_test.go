package xmpp

import (
	"bytes"
	"encoding/hex"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pogo/internal/obs"
)

func startServer(t *testing.T, cfg ServerConfig) *Server {
	t.Helper()
	s := NewServer(cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func dial(t *testing.T, s *Server, user, pass string) *Client {
	t.Helper()
	c, err := Dial(s.Addr(), user, pass, "test")
	if err != nil {
		t.Fatalf("dial %s: %v", user, err)
	}
	t.Cleanup(c.Close)
	return c
}

// waitFor polls cond for up to 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestJID(t *testing.T) {
	j := JID("alice@pogo/phone")
	if j.bare() != "alice@pogo" || j.User() != "alice" {
		t.Errorf("Bare=%s User=%s", j.bare(), j.User())
	}
	if MakeJID("bob") != "bob@pogo" {
		t.Errorf("MakeJID = %s", MakeJID("bob"))
	}
	if JID("plain").User() != "plain" {
		t.Error("User of domainless JID")
	}
}

func TestAuthSuccessAndFailure(t *testing.T) {
	s := startServer(t, ServerConfig{})
	s.AddAccount("alice", "secret")

	c := dial(t, s, "alice", "secret")
	if c.jid.bare() != "alice@pogo" {
		t.Errorf("JID = %s", c.jid)
	}

	if _, err := Dial(s.Addr(), "alice", "wrong", "r"); err == nil {
		t.Error("bad password accepted")
	}
	if _, err := Dial(s.Addr(), "nobody", "x", "r"); err == nil {
		t.Error("unknown account accepted without auto-register")
	}
}

func TestAutoRegister(t *testing.T) {
	s := startServer(t, ServerConfig{AllowAutoRegister: true})
	c := dial(t, s, "fresh", "pw")
	if c.jid.User() != "fresh" {
		t.Errorf("JID = %s", c.jid)
	}
	// Second login must still check the password.
	c.Close()
	if _, err := Dial(s.Addr(), "fresh", "different", "r"); err == nil {
		t.Error("auto-registered account accepted wrong password later")
	}
}

func TestMessageRouting(t *testing.T) {
	s := startServer(t, ServerConfig{AllowAutoRegister: true})
	s.Associate("researcher", "device1")

	var mu sync.Mutex
	var got []string
	dev := dial(t, s, "device1", "pw")
	dev.OnMessageRaw(func(from JID, id string, body []byte) {
		mu.Lock()
		got = append(got, from.bare().String()+"|"+id+"|"+string(body))
		mu.Unlock()
	})
	res := dial(t, s, "researcher", "pw")
	if err := res.SendMessageBytes(MakeJID("device1"), "m1", []byte(`{"hello":1}`), ""); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "message delivery", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 1
	})
	mu.Lock()
	defer mu.Unlock()
	if got[0] != `researcher@pogo|m1|{"hello":1}` {
		t.Errorf("got %q", got[0])
	}
}

// A message to an offline roster peer is held, not bounced, and reaches the
// peer's next session with its sender and id intact.
func TestMessageToOfflinePeerReplays(t *testing.T) {
	s := startServer(t, ServerConfig{AllowAutoRegister: true})
	s.Associate("researcher", "device1")
	res := dial(t, s, "researcher", "pw")
	bounced := make(chan string, 1)
	res.OnError(func(id, reason string) { bounced <- id + "|" + reason })
	res.SendMessageBytes(MakeJID("device1"), "m9", []byte("payload"), "")
	waitFor(t, "message queued", func() bool { return queued(s.Switchboard, "device1") == 1 })

	var mu sync.Mutex
	var got []string
	dev := dial(t, s, "device1", "pw")
	dev.OnMessageRaw(func(from JID, id string, body []byte) {
		mu.Lock()
		got = append(got, from.String()+"|"+id+"|"+string(body))
		mu.Unlock()
	})
	waitFor(t, "replay", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 1
	})
	mu.Lock()
	defer mu.Unlock()
	if got[0] != "researcher@pogo|m9|payload" {
		t.Errorf("replayed %q", got[0])
	}
	select {
	case b := <-bounced:
		t.Errorf("offline peer bounced: %s", b)
	default:
	}
}

func TestMessageOutsideRosterRejected(t *testing.T) {
	// Device nodes can never message each other (§4.2): the roster is the
	// authorization boundary.
	s := startServer(t, ServerConfig{AllowAutoRegister: true})
	a := dial(t, s, "devA", "pw")
	b := dial(t, s, "devB", "pw")
	received := make(chan string, 1)
	b.OnMessageRaw(func(_ JID, _ string, body []byte) { received <- string(body) })
	var mu sync.Mutex
	var errs []string
	a.OnError(func(id, reason string) {
		mu.Lock()
		errs = append(errs, reason)
		mu.Unlock()
	})
	a.SendMessageBytes(MakeJID("devB"), "m1", []byte("sneaky"), "")
	waitFor(t, "rejection", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(errs) == 1
	})
	mu.Lock()
	if errs[0] != "not-on-roster" {
		t.Errorf("reason = %q", errs[0])
	}
	mu.Unlock()
	select {
	case body := <-received:
		t.Errorf("unauthorized message delivered: %q", body)
	default:
	}
}

func TestRosterQuery(t *testing.T) {
	s := startServer(t, ServerConfig{AllowAutoRegister: true})
	s.Associate("researcher", "device1")
	s.Associate("researcher", "device2")
	res := dial(t, s, "researcher", "pw")
	items, err := res.Roster()
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 || items[0] != "device1@pogo" || items[1] != "device2@pogo" {
		t.Errorf("roster = %v", items)
	}
	if got := s.Roster("device1"); len(got) != 1 || got[0] != "researcher" {
		t.Errorf("server roster for device1 = %v", got)
	}
}

func TestPresenceNotifications(t *testing.T) {
	s := startServer(t, ServerConfig{AllowAutoRegister: true})
	s.Associate("researcher", "device1")

	var mu sync.Mutex
	presence := map[string]bool{}
	res := dial(t, s, "researcher", "pw")
	res.OnPresence(func(peer JID, avail bool) {
		mu.Lock()
		presence[peer.User()] = avail
		mu.Unlock()
	})

	dev := dial(t, s, "device1", "pw")
	waitFor(t, "device online presence", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return presence["device1"]
	})

	dev.Close()
	waitFor(t, "device offline presence", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return !presence["device1"]
	})
}

func TestReconnectReplacesSession(t *testing.T) {
	s := startServer(t, ServerConfig{AllowAutoRegister: true})
	s.Associate("r", "d")
	c1 := dial(t, s, "d", "pw")
	disconnected := make(chan struct{})
	c1.OnDisconnect(func(error) { close(disconnected) })

	// Interface handover: the device reconnects; the server must adopt the
	// new session (§4.6).
	c2 := dial(t, s, "d", "pw")
	select {
	case <-disconnected:
	case <-time.After(5 * time.Second):
		t.Fatal("old session not displaced")
	}
	waitFor(t, "new session live", func() bool { return s.Online("d") })

	var mu sync.Mutex
	var got []string
	c2.OnMessageRaw(func(_ JID, _ string, body []byte) {
		mu.Lock()
		got = append(got, string(body))
		mu.Unlock()
	})
	r := dial(t, s, "r", "pw")
	r.SendMessageBytes(MakeJID("d"), "m", []byte("after-handover"), "")
	waitFor(t, "delivery to new session", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 1
	})
}

func TestServerClose(t *testing.T) {
	s := NewServer(ServerConfig{AllowAutoRegister: true})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(s.Addr(), "u", "p", "r")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s.Close()
	s.Close() // idempotent
	if s.Online("u") {
		t.Error("session survives server close")
	}
}

func TestManyClientsConcurrent(t *testing.T) {
	s := startServer(t, ServerConfig{AllowAutoRegister: true})
	const n = 8
	for i := 0; i < n; i++ {
		s.Associate("collector", "dev"+string(rune('0'+i)))
	}
	var mu sync.Mutex
	bodies := map[string]bool{}
	col := dial(t, s, "collector", "pw")
	col.OnMessageRaw(func(from JID, _ string, body []byte) {
		mu.Lock()
		bodies[string(body)] = true
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := "dev" + string(rune('0'+i))
			c, err := Dial(s.Addr(), name, "pw", "r")
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for j := 0; j < 10; j++ {
				c.SendMessageBytes(MakeJID("collector"), "m", []byte(name+"-"+string(rune('0'+j))), "")
			}
			time.Sleep(50 * time.Millisecond)
		}(i)
	}
	wg.Wait()
	waitFor(t, "all messages", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(bodies) == n*10
	})
}

// hostileBody is deliberately unfit for XML character data: control bytes, a
// NUL, an invalid UTF-8 sequence, a newline, and the frame magic itself.
var hostileBody = []byte{0x00, 0x01, 'p', 'o', 'g', 'o', 0xff, 0xfe, '\n', 0x7f, frameMagic, '<'}

// A hostile binary body must survive client → server → client byte for byte.
func TestHostileBodySurvivesFrames(t *testing.T) {
	s := startServer(t, ServerConfig{})
	s.AddAccount("alice", "pw")
	s.AddAccount("bob", "pw")
	s.Associate("alice", "bob")

	bob := dial(t, s, "bob", "pw")
	got := make(chan []byte, 1)
	bob.OnMessageRaw(func(_ JID, _ string, body []byte) { got <- body })

	alice := dial(t, s, "alice", "pw")
	if err := alice.SendMessageBytes(MakeJID("bob"), "f1", hostileBody, ""); err != nil {
		t.Fatal(err)
	}
	select {
	case body := <-got:
		if !bytes.Equal(body, hostileBody) {
			t.Fatalf("frame payload mangled: got %x want %x", body, hostileBody)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("framed message never arrived")
	}
}

// readHexFixture loads a checked-in wire fixture from the transport package's
// testdata (hex text, whitespace ignored).
func readHexFixture(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "transport", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	b, err := hex.DecodeString(strings.Join(strings.Fields(string(raw)), ""))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return b
}

// The checked-in 0xB3 frame — a client's send of the fixture data envelope
// with both items' trace IDs in the trace field: the first item's derived
// from its publication number, the second's as the envelope carries it —
// pins the frame layout byte for byte in both directions, and the batch path
// renders the same bytes.
func TestStanzaFrameFixture(t *testing.T) {
	want := readHexFixture(t, "stanza_frame.hex")
	traces := []obs.TraceID{obs.PublicationTrace("phone-1", 57), 0xfedcba9876543210}
	m := Stanza{
		To:   "collector@pogo",
		ID:   "1",
		T:    TraceAttr(traces),
		Body: readHexFixture(t, "data_envelope.hex"),
	}
	if got := appendFrame(nil, m.To, m.From, m.ID, m.T, m.Body); !bytes.Equal(got, want) {
		t.Fatalf("frame encoding moved:\n got %x\nwant %x", got, want)
	}
	raw := RawMessage{To: "collector", ID: 1, Body: m.Body, Traces: traces}
	if got := appendRawFrame(nil, &raw); !bytes.Equal(got, want) {
		t.Fatalf("batch frame differs:\n got %x\nwant %x", got, want)
	}
	sr := newStanzaReader(bytes.NewReader(want))
	got, isFrame, _, err := sr.next()
	if err != nil || !isFrame {
		t.Fatalf("fixture did not read as a frame: isFrame=%v err=%v", isFrame, err)
	}
	if got.To != m.To || got.From != m.From || got.ID != m.ID || got.T != m.T || !bytes.Equal(got.Body, m.Body) {
		t.Fatalf("decoded %+v, want %+v", got, m)
	}
	if _, _, _, err := sr.next(); err != io.EOF {
		t.Fatalf("bytes after the fixture frame: %v", err)
	}
}

// cycleReader yields b over and over, forever.
type cycleReader struct {
	b   []byte
	off int
}

func (r *cycleReader) Read(p []byte) (int, error) {
	n := copy(p, r.b[r.off:])
	r.off = (r.off + n) % len(r.b)
	return n, nil
}

// TestReadFrameAllocatesOnce: a data frame a client receives costs one
// allocation, the copy its handler owns — to and from are interned, the
// frame is read into the reader's buffer, and the id, trace field and body
// are copied out of it together.
func TestReadFrameAllocatesOnce(t *testing.T) {
	frame := appendFrame(nil, "collector@pogo", "phone-1@pogo", "1234",
		TraceAttr([]obs.TraceID{0x0123456789abcdef, 0xfedcba9876543210}), make([]byte, 90))
	sr := newStanzaReader(&cycleReader{b: frame})
	c := &Client{}
	c.OnMessageRaw(func(_ JID, id string, body []byte) {
		if id != "1234" || len(body) != 90 {
			t.Fatalf("handler got id %q and %d body bytes", id, len(body))
		}
	})
	read := func() {
		m, isFrame, _, err := sr.next()
		if err != nil || !isFrame || m.ID != "1234" || len(m.T) != 16 || len(m.Body) != 90 {
			t.Fatalf("read %+v (frame %v, %v)", m, isFrame, err)
		}
		c.dispatchMessage(m)
	}
	for i := 0; i < 10; i++ {
		read()
	}
	if allocs := testing.AllocsPerRun(500, read); allocs != 1 {
		t.Errorf("receiving a data frame: %.1f allocs, want 1", allocs)
	}
}

// discardConn is a connection whose writes all succeed and go nowhere.
type discardConn struct{ net.Conn }

func (discardConn) Write(b []byte) (int, error) { return len(b), nil }

// TestRoutedFrameAllocatesNothing: a data frame the server reads and routes
// to a live session costs nothing — it is read into the connection's buffer,
// as serveConn's loop reads it, and written out of it by the recipient's
// Deliver.
func TestRoutedFrameAllocatesNothing(t *testing.T) {
	s := NewServer(ServerConfig{})
	s.Associate("phone-1", "collector")
	s.Attach("collector", &tcpSession{jid: "collector@pogo/pogo", conn: discardConn{}})
	frame := appendFrame(nil, "collector@pogo", "", "1234",
		TraceAttr([]obs.TraceID{0x0123456789abcdef}), make([]byte, 400))
	sr := newStanzaReader(&cycleReader{b: frame})
	route := func() {
		m, isFrame, _, err := sr.next()
		if err != nil || !isFrame {
			t.Fatalf("read %+v (frame %v, %v)", m, isFrame, err)
		}
		m.From = "phone-1@pogo"
		s.Route("phone-1", JID(m.To).User(), m)
	}
	for i := 0; i < 10; i++ {
		route()
	}
	if allocs := testing.AllocsPerRun(500, route); allocs != 0 {
		t.Errorf("reading and routing a data frame: %.1f allocs, want 0", allocs)
	}
}

// A frame larger than frameKeep is read into a buffer of its own: the
// reader keeps at most frameKeep bytes, and the frames either side of the
// large one read whole.
func TestReaderKeepsAtMostFrameKeep(t *testing.T) {
	small := bytes.Repeat([]byte("s"), 300)
	large := bytes.Repeat([]byte("L"), 3*frameKeep)
	var wire []byte
	for _, body := range [][]byte{small, large, small} {
		wire = appendFrame(wire, "collector@pogo", "phone-1@pogo", "7", "", body)
	}
	sr := newStanzaReader(bytes.NewReader(wire))
	for i, want := range [][]byte{small, large, small} {
		m, isFrame, _, err := sr.next()
		if err != nil || !isFrame || m.ID != "7" || !bytes.Equal(m.Body, want) {
			t.Fatalf("frame %d: %d body bytes, id %q (frame %v, %v)", i, len(m.Body), m.ID, isFrame, err)
		}
		if cap(sr.buf) > frameKeep {
			t.Fatalf("after frame %d the reader keeps %d bytes, want at most %d", i, cap(sr.buf), frameKeep)
		}
	}
}

// The write side keeps the same bound: a session that delivered a frame
// larger than frameKeep drops that buffer once it is out, and keeps the
// buffer of the small frame after it.
func TestWriterKeepsAtMostFrameKeep(t *testing.T) {
	c := &tcpSession{jid: "collector@pogo/pogo", conn: discardConn{}}
	for i, n := range []int{300, 3 * frameKeep, 300} {
		if err := c.Deliver(Stanza{To: "collector@pogo", From: "phone-1@pogo", ID: "7", Body: make([]byte, n)}); err != nil {
			t.Fatal(err)
		}
		if kept := cap(c.wbuf); kept > frameKeep || n <= frameKeep && kept == 0 {
			t.Fatalf("after frame %d (%d body bytes) the session keeps %d bytes, want 1..%d", i, n, kept, frameKeep)
		}
	}
}
