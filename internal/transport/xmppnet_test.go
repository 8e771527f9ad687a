package transport

import (
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"pogo/internal/msg"
	"pogo/internal/store"
	"pogo/internal/vclock"
	"pogo/internal/xmpp"
)

// These tests exercise the full reliable-transport stack over a real TCP
// XMPP server: Endpoint → XMPPMessenger → xmpp.Client → xmpp.Server.

func startXMPP(t *testing.T) *xmpp.Server {
	t.Helper()
	s := xmpp.NewServer(xmpp.ServerConfig{AllowAutoRegister: true})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestEndpointOverRealXMPP(t *testing.T) {
	srv := startXMPP(t)
	srv.Associate("device", "collector")

	devM, err := DialXMPP(srv.Addr(), "device", "pw", "phone")
	if err != nil {
		t.Fatal(err)
	}
	defer devM.Close()
	colM, err := DialXMPP(srv.Addr(), "collector", "pw", "pc")
	if err != nil {
		t.Fatal(err)
	}
	defer colM.Close()

	clk := vclock.Real{}
	devEp := NewEndpoint(devM, store.OpenMemory(), clk, EndpointConfig{})
	colEp := NewEndpoint(colM, store.OpenMemory(), clk, EndpointConfig{})

	var mu sync.Mutex
	var got []received
	colEp.OnMessage(func(from, channel string, payload msg.Value) {
		mu.Lock()
		got = append(got, received{from, channel, payload})
		mu.Unlock()
	})

	devEp.Enqueue("collector", "battery", msg.Map{"voltage": 4.1})
	devEp.Enqueue("collector", "battery", msg.Map{"voltage": 4.0})
	devEp.Flush()

	waitCond(t, "delivery", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 2
	})
	waitCond(t, "acks", func() bool { return devEp.Pending() == 0 })

	mu.Lock()
	defer mu.Unlock()
	if got[0].from != "device" || got[0].channel != "battery" {
		t.Errorf("got[0] = %+v", got[0])
	}
	v, _ := msg.GetNumber(got[0].payload.(msg.Raw), "voltage")
	if v != 4.1 {
		t.Errorf("voltage = %v", v)
	}
}

func TestXMPPMessengerPresence(t *testing.T) {
	srv := startXMPP(t)
	srv.Associate("device", "collector")

	colM, err := DialXMPP(srv.Addr(), "collector", "pw", "pc")
	if err != nil {
		t.Fatal(err)
	}
	defer colM.Close()
	var mu sync.Mutex
	online := map[string]bool{}
	colM.OnPresence(func(peer string, up bool) {
		mu.Lock()
		online[peer] = up
		mu.Unlock()
	})

	devM, err := DialXMPP(srv.Addr(), "device", "pw", "phone")
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, "device presence", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return online["device"]
	})
	devM.Close()
	waitCond(t, "device offline", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return !online["device"]
	})
	if !colM.Online() {
		t.Error("collector went offline")
	}
	if colM.LocalID() != "collector" {
		t.Errorf("LocalID = %q", colM.LocalID())
	}
}

func TestXMPPMessengerRoster(t *testing.T) {
	srv := startXMPP(t)
	srv.Associate("r", "d1")
	srv.Associate("r", "d2")
	m, err := DialXMPP(srv.Addr(), "r", "pw", "pc")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	peers := m.Peers()
	if len(peers) != 2 {
		t.Errorf("Peers = %v", peers)
	}
}

func TestXMPPMessengerReconnects(t *testing.T) {
	// A phone's TCP session dies on interface handover; Pogo reconnects
	// automatically (§4.6). Simulate by bouncing the server on a fixed port.
	srv := xmpp.NewServer(xmpp.ServerConfig{AllowAutoRegister: true})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	srv.Associate("device", "collector")

	m, err := DialXMPP(addr, "device", "pw", "phone")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	onlineAgain := make(chan struct{}, 4)
	m.OnOnline(func() { onlineAgain <- struct{}{} })

	srv.Close() // the session dies
	waitCond(t, "offline", func() bool { return !m.Online() })

	// The network comes back: a server on the same address.
	srv2 := xmpp.NewServer(xmpp.ServerConfig{Addr: addr, AllowAutoRegister: true})
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := srv2.Start(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("could not rebind server address")
		}
		time.Sleep(100 * time.Millisecond)
	}
	defer srv2.Close()

	select {
	case <-onlineAgain:
	case <-time.After(15 * time.Second):
		t.Fatal("messenger never reconnected")
	}
	waitCond(t, "online", func() bool { return m.Online() })
	waitCond(t, "session live server-side", func() bool { return srv2.Online("device") })
}

// Close must not sit out the reconnect backoff (2 s at first, 30 s at the
// cap): it wakes the loop.
func TestXMPPMessengerCloseDuringBackoff(t *testing.T) {
	srv := xmpp.NewServer(xmpp.ServerConfig{AllowAutoRegister: true})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	m, err := DialXMPP(srv.Addr(), "device", "pw", "phone")
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	waitCond(t, "offline", func() bool { return !m.Online() })
	// Not synchronisation: Close is prompt whether the loop is dialing or
	// waiting. The pause only lets the refused dial fail so that the loop is
	// in its backoff, the state this test is about.
	time.Sleep(100 * time.Millisecond)
	t0 := time.Now()
	m.Close()
	if d := time.Since(t0); d > 200*time.Millisecond {
		t.Errorf("Close took %v with the reconnect loop in backoff, want < 200ms", d)
	}
}

// heldProxy forwards TCP connections to target, each only once a token
// arrives on admit, so a test can keep a dial in flight for as long as it
// likes. drop severs every forwarded connection.
type heldProxy struct {
	ln       net.Listener
	admit    chan struct{}
	accepted chan struct{}
	mu       sync.Mutex
	conns    []net.Conn
}

func newHeldProxy(t *testing.T, target string) *heldProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Buffered for the two connections the test makes, so neither the test
	// nor the accept loop waits on the other.
	p := &heldProxy{ln: ln, admit: make(chan struct{}, 2), accepted: make(chan struct{}, 2)}
	t.Cleanup(func() { ln.Close(); p.drop() })
	go func() {
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			p.accepted <- struct{}{}
			<-p.admit
			server, err := net.Dial("tcp", target)
			if err != nil {
				client.Close()
				continue
			}
			p.mu.Lock()
			p.conns = append(p.conns, client, server)
			p.mu.Unlock()
			go func() { io.Copy(server, client); server.Close() }()
			go func() { io.Copy(client, server); client.Close() }()
		}
	}()
	return p
}

func (p *heldProxy) drop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
}

// A reconnect dial that completes after Close must not install its client:
// nobody would be left to close the socket, its read goroutine or the
// server-side session.
func TestXMPPMessengerCloseDuringDial(t *testing.T) {
	srv := startXMPP(t)
	proxy := newHeldProxy(t, srv.Addr())
	baseline := runtime.NumGoroutine()

	proxy.admit <- struct{}{}
	m, err := DialXMPP(proxy.ln.Addr().String(), "device", "pw", "phone")
	if err != nil {
		t.Fatal(err)
	}
	cameOnline := make(chan struct{}, 1)
	m.OnOnline(func() { cameOnline <- struct{}{} })
	<-proxy.accepted

	proxy.drop() // the session dies; the reconnect dial is accepted and held
	<-proxy.accepted
	closed := make(chan struct{})
	go func() { m.Close(); close(closed) }()
	waitCond(t, "Close under way", func() bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.closed
	})
	proxy.admit <- struct{}{} // the dial completes on a closed messenger
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return once the dial finished")
	}
	waitCond(t, "no session left server-side", func() bool { return !srv.Online("device") })
	waitCond(t, "goroutines back at the baseline", func() bool { return runtime.NumGoroutine() <= baseline })
	select {
	case <-cameOnline:
		t.Error("OnOnline fired on a closed messenger")
	default:
	}
}

func TestXMPPMessengerOfflineSend(t *testing.T) {
	srv := startXMPP(t)
	m, err := DialXMPP(srv.Addr(), "u", "pw", "r")
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if err := m.Send("x", []byte("hi")); err != ErrOffline {
		t.Errorf("Send after close = %v, want ErrOffline", err)
	}
	if m.Online() {
		t.Error("Online after Close")
	}
}
