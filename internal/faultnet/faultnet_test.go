package faultnet

import (
	"bufio"
	"net"
	"sync"
	"testing"
	"time"

	"pogo/internal/vclock"
)

// pipe is the minimal inner messenger: two always-online ends delivering to
// each other after a fixed latency on the sim clock.
type pipe struct {
	id  string
	clk vclock.Clock

	mu        sync.Mutex
	peer      *pipe
	onReceive func(from string, payload []byte)
	onOnline  []func()
}

func pipePair(clk vclock.Clock) (*pipe, *pipe) {
	a := &pipe{id: "a", clk: clk}
	b := &pipe{id: "b", clk: clk}
	a.peer, b.peer = b, a
	return a, b
}

func (p *pipe) LocalID() string { return p.id }
func (p *pipe) Online() bool    { return true }
func (p *pipe) Peers() []string { return []string{p.peer.id} }

func (p *pipe) Send(to string, payload []byte) error {
	body := append([]byte(nil), payload...)
	peer := p.peer
	p.clk.AfterFunc(time.Millisecond, func() {
		peer.mu.Lock()
		fn := peer.onReceive
		peer.mu.Unlock()
		if fn != nil {
			fn(p.id, body)
		}
	})
	return nil
}

func (p *pipe) OnReceive(fn func(string, []byte)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.onReceive = fn
}
func (p *pipe) OnOnline(fn func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.onOnline = append(p.onOnline, fn)
}
func (p *pipe) OnPresence(func(string, bool)) {}

// fireOnline simulates the inner messenger reconnecting.
func (p *pipe) fireOnline() {
	p.mu.Lock()
	handlers := append([]func(){}, p.onOnline...)
	p.mu.Unlock()
	for _, fn := range handlers {
		fn()
	}
}

func wrapPair(clk *vclock.Sim, cfg Config) (*Net, *Fault, *Fault, *pipe, *pipe) {
	pa, pb := pipePair(clk)
	n := New(clk, cfg)
	return n, n.Wrap(pa), n.Wrap(pb), pa, pb
}

// blast sends count payloads a→b and returns how many arrived, with bodies.
func blast(clk *vclock.Sim, fa, fb *Fault, count int) [][]byte {
	var got [][]byte
	fb.OnReceive(func(_ string, payload []byte) {
		got = append(got, append([]byte(nil), payload...))
	})
	for i := 0; i < count; i++ {
		fa.Send("b", []byte{byte(i), 0x5a})
	}
	clk.Advance(time.Second)
	return got
}

func TestSameSeedSameFaults(t *testing.T) {
	run := func() (Stats, int) {
		clk := vclock.NewSim()
		n, fa, fb, _, _ := wrapPair(clk, Config{
			Seed: 42, Drop: 0.3, Duplicate: 0.2, Corrupt: 0.2, MaxDelay: 50 * time.Millisecond,
		})
		got := blast(clk, fa, fb, 200)
		return n.Stats(), len(got)
	}
	s1, g1 := run()
	s2, g2 := run()
	if s1 != s2 || g1 != g2 {
		t.Errorf("same seed diverged: %+v/%d vs %+v/%d", s1, g1, s2, g2)
	}
	if s1.Dropped == 0 || s1.Duplicated == 0 || s1.Corrupted == 0 || s1.Delayed == 0 {
		t.Errorf("fault mix not exercised: %+v", s1)
	}
	if g1 != s1.Sent-s1.Dropped+s1.Duplicated {
		t.Errorf("arithmetic: got %d, sent=%d dropped=%d duplicated=%d", g1, s1.Sent, s1.Dropped, s1.Duplicated)
	}
}

func TestDifferentSeedDifferentFaults(t *testing.T) {
	run := func(seed int64) Stats {
		clk := vclock.NewSim()
		n, fa, fb, _, _ := wrapPair(clk, Config{Seed: seed, Drop: 0.3, MaxDelay: 10 * time.Millisecond})
		blast(clk, fa, fb, 300)
		return n.Stats()
	}
	if run(1) == run(2) {
		t.Error("different seeds produced identical fault schedules")
	}
}

func TestCorruptionFlipsExactlyOneByte(t *testing.T) {
	clk := vclock.NewSim()
	n, fa, fb, _, _ := wrapPair(clk, Config{Seed: 5, Corrupt: 1.0})
	var got []byte
	fb.OnReceive(func(_ string, payload []byte) { got = payload })
	fa.Send("b", []byte("hello"))
	clk.Advance(time.Second)
	if got == nil {
		t.Fatal("nothing arrived")
	}
	diff := 0
	for i, c := range []byte("hello") {
		if got[i] != c {
			diff++
			if got[i] != c^0xff {
				t.Errorf("byte %d flipped to %x, want %x", i, got[i], c^0xff)
			}
		}
	}
	if diff != 1 {
		t.Errorf("%d bytes differ, want exactly 1", diff)
	}
	if n.Stats().Corrupted != 1 {
		t.Errorf("Corrupted = %d", n.Stats().Corrupted)
	}
}

func TestDelayJitterReorders(t *testing.T) {
	clk := vclock.NewSim()
	_, fa, fb, _, _ := wrapPair(clk, Config{Seed: 11, MaxDelay: 200 * time.Millisecond})
	got := blast(clk, fa, fb, 50)
	if len(got) != 50 {
		t.Fatalf("arrived %d of 50", len(got))
	}
	inOrder := true
	for i := 1; i < len(got); i++ {
		if got[i][0] < got[i-1][0] {
			inOrder = false
		}
	}
	if inOrder {
		t.Error("200ms jitter over 50 sends never reordered; suspicious")
	}
}

func TestPartitionAsymmetry(t *testing.T) {
	clk := vclock.NewSim()
	n, fa, fb, _, _ := wrapPair(clk, Config{Seed: 3})
	var atA, atB int
	fa.OnReceive(func(string, []byte) { atA++ })
	fb.OnReceive(func(string, []byte) { atB++ })

	n.Partition("a", "b")
	fa.Send("b", []byte("x"))
	fb.Send("a", []byte("y"))
	clk.Advance(time.Second)
	if atB != 0 {
		t.Error("a→b delivered across the cut")
	}
	if atA != 1 {
		t.Errorf("b→a delivered %d, want 1 (asymmetric)", atA)
	}
	if n.Stats().PartitionDrops != 1 {
		t.Errorf("PartitionDrops = %d", n.Stats().PartitionDrops)
	}

	n.HealAll()
	fa.Send("b", []byte("x"))
	clk.Advance(time.Second)
	if atB != 1 {
		t.Error("heal did not restore a→b")
	}
}

func TestChurnDisconnectReconnect(t *testing.T) {
	clk := vclock.NewSim()
	n, fa, fb, _, _ := wrapPair(clk, Config{Seed: 8})
	onlineFired := 0
	fb.OnOnline(func() { onlineFired++ })
	fb.OnReceive(func(string, []byte) {})

	fb.Disconnect()
	if fb.Online() {
		t.Error("Online() true while churned down")
	}
	if err := fb.Send("a", []byte("x")); err != errOffline {
		t.Errorf("Send while down = %v, want ErrOffline", err)
	}
	fa.Send("b", []byte("x"))
	clk.Advance(time.Second)
	if n.Stats().ChurnDrops != 1 {
		t.Errorf("ChurnDrops = %d", n.Stats().ChurnDrops)
	}

	fb.Reconnect()
	if !fb.Online() || onlineFired != 1 {
		t.Errorf("reconnect: online=%v fired=%d", fb.Online(), onlineFired)
	}
	fb.Reconnect() // idempotent: no second session event
	if onlineFired != 1 {
		t.Errorf("double reconnect fired %d", onlineFired)
	}
	st := n.Stats()
	if st.Disconnects != 1 || st.Reconnects != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestChurnScheduleIsSeededAndStoppable(t *testing.T) {
	run := func() Stats {
		clk := vclock.NewSim()
		n, _, fb, _, _ := wrapPair(clk, Config{Seed: 21})
		stop := n.Churn(fb, 2*time.Minute, 30*time.Second)
		clk.Advance(30 * time.Minute)
		stop()
		if fb.isDown() {
			t.Error("stop() left the fault disconnected")
		}
		down := fb.isDown()
		clk.Advance(30 * time.Minute)
		if fb.isDown() != down {
			t.Error("churn continued after stop()")
		}
		return n.Stats()
	}
	s1 := run()
	s2 := run()
	if s1 != s2 {
		t.Errorf("churn schedule not seeded: %+v vs %+v", s1, s2)
	}
	if s1.Disconnects < 5 {
		t.Errorf("Disconnects = %d over 30 min of 2.5-min cycles", s1.Disconnects)
	}
}

func TestInnerOnlineSuppressedWhileDown(t *testing.T) {
	clk := vclock.NewSim()
	_, _, fb, _, pb := wrapPair(clk, Config{Seed: 1})
	fired := 0
	fb.OnOnline(func() { fired++ })
	fb.Disconnect()
	pb.fireOnline() // inner reconnects while the fault holds the node down
	if fired != 0 {
		t.Error("inner online leaked through a churned-down fault")
	}
	fb.Reconnect()
	pb.fireOnline()
	if fired != 2 { // one from Reconnect, one propagated
		t.Errorf("fired = %d, want 2", fired)
	}
}

// TestTCPProxyDropsLiveConnections exercises the real-socket fault: an
// established session dies mid-stream, new connections still succeed.
func TestTCPProxyDropsLiveConnections(t *testing.T) {
	// Echo server.
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
			go func(c net.Conn) {
				defer c.Close()
				sc := bufio.NewScanner(c)
				for sc.Scan() {
					c.Write(append(sc.Bytes(), '\n'))
				}
			}(c)
		}
	}()

	proxy, err := NewTCPProxy(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	dial := func() net.Conn {
		c, err := net.Dial("tcp", proxy.Addr())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	roundtrip := func(c net.Conn) error {
		if _, err := c.Write([]byte("ping\n")); err != nil {
			return err
		}
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		_, err := bufio.NewReader(c).ReadString('\n')
		return err
	}

	c1 := dial()
	defer c1.Close()
	if err := roundtrip(c1); err != nil {
		t.Fatalf("healthy roundtrip: %v", err)
	}

	proxy.DropConns()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := roundtrip(c1); err != nil {
			break // session is dead, as it should be
		}
		if time.Now().After(deadline) {
			t.Fatal("connection survived DropConns")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A fresh session works (the "reconnect" path).
	c2 := dial()
	defer c2.Close()
	if err := roundtrip(c2); err != nil {
		t.Fatalf("post-drop reconnect roundtrip: %v", err)
	}
}
