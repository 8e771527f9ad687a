package core

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pogo/internal/android"
	"pogo/internal/energy"
	"pogo/internal/msg"
	"pogo/internal/pubsub"
	"pogo/internal/radio"
	"pogo/internal/store"
	"pogo/internal/transport"
	"pogo/internal/vclock"
	"pogo/internal/xmpp"
)

// TestCoreOverRealXMPP exercises the full production path: core nodes on the
// real clock, talking through genuine TCP/XMPP sockets.
func TestCoreOverRealXMPP(t *testing.T) {
	srv := xmpp.NewServer(xmpp.ServerConfig{AllowAutoRegister: true})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Associate("researcher", "phone")

	clk := vclock.Real{}

	colM, err := transport.DialXMPP(srv.Addr(), "researcher", "pw", "pc")
	if err != nil {
		t.Fatal(err)
	}
	defer colM.Close()
	col, err := NewNode(Config{
		ID: "researcher", Mode: CollectorMode, Clock: clk, Messenger: colM,
		FlushPolicy: FlushImmediate,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	devM, err := transport.DialXMPP(srv.Addr(), "phone", "pw", "ph")
	if err != nil {
		t.Fatal(err)
	}
	defer devM.Close()
	meter := energy.NewMeter(clk)
	droid := android.NewDevice(clk, meter, android.Config{})
	fast := radio.KPN
	fast.RampUp, fast.DCHTailTime, fast.FACHTailTime, fast.MinTxTime =
		10*time.Millisecond, 50*time.Millisecond, 100*time.Millisecond, time.Millisecond
	modem := radio.NewModem(clk, meter, fast)
	dev, err := NewNode(Config{
		ID: "phone", Mode: DeviceMode, Clock: clk, Messenger: devM,
		Device: droid, Modem: modem, Storage: store.NewMemKV(),
		FlushPolicy: FlushImmediate,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()

	var mu sync.Mutex
	var lines []string
	col.Logs().SetOnAppend(func(log, line string) {
		if log == "pings" {
			mu.Lock()
			lines = append(lines, line)
			mu.Unlock()
		}
	})
	if err := col.DeployLocal("sink.js", `
		setDescription('sink');
		subscribe('ping', function (m, origin) { logTo('pings', origin + ':' + m.n); });
	`); err != nil {
		t.Fatal(err)
	}
	if err := col.Deploy("pinger.js", `
		setDescription('pinger');
		var n = 0;
		function tick() { n++; publish('ping', { n: n }); setTimeout(tick, 50); }
		setTimeout(tick, 50);
	`); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(lines)
		mu.Unlock()
		if n >= 5 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lines) < 5 {
		t.Fatalf("only %d pings arrived over real XMPP: %v", len(lines), lines)
	}
	if !strings.HasPrefix(lines[0], "phone:") {
		t.Errorf("origin missing: %q", lines[0])
	}
}

// An administrator may assign a phone to a researcher while both are already
// online (§3.1). The server announces the association both ways, so the
// collector's roster grows and Deploy reaches the phone.
func TestLateAssociationDeploysOverRealXMPP(t *testing.T) {
	srv := xmpp.NewServer(xmpp.ServerConfig{AllowAutoRegister: true})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	node := func(id string, mode Mode) (*Node, *transport.XMPPMessenger) {
		m, err := transport.DialXMPP(srv.Addr(), id, "pw", "r")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		nd, err := NewNode(Config{ID: id, Mode: mode, Clock: vclock.Real{}, Messenger: m, FlushPolicy: FlushImmediate})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nd.Close)
		return nd, m
	}
	col, colM := node("researcher", CollectorMode)
	phone, _ := node("phone", DeviceMode)

	srv.Associate("researcher", "phone")
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if peers := colM.Peers(); len(peers) == 1 && peers[0] == "phone" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("collector roster %v after the late association, want [phone]", colM.Peers())
		}
	}
	if err := col.Deploy("late.js", `setDescription('late');`); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if ctx := phone.Contexts()["researcher"]; ctx != nil && ctx.Script("late.js") != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Deploy never reached the late-associated phone")
		}
	}
}

func TestAutoStartOffRequiresManualStart(t *testing.T) {
	r := newRig(t, "dev1")
	d := r.dev["dev1"]
	r.col.Deploy("manual.js", `
		setAutoStart(false);
		setDescription('waits for the user');
		function start() { print('running'); }
	`)
	r.clk.Advance(10 * time.Second)
	ctx := d.node.Contexts()["collector"]
	if ctx == nil || ctx.Script("manual.js") == nil {
		t.Fatal("script not deployed")
	}
	if got := len(d.node.Logs().Prints()); got != 0 {
		t.Fatalf("script ran without user consent: %d prints", got)
	}

	// The user taps "start" in the UI.
	if err := ctx.StartScript("manual.js"); err != nil {
		t.Fatal(err)
	}
	prints := d.node.Logs().Prints()
	if len(prints) != 1 || prints[0].Text != "running" {
		t.Errorf("prints = %+v", prints)
	}
	if err := ctx.StartScript("missing.js"); err == nil {
		t.Error("starting an unknown script succeeded")
	}
}

// TestScriptSeesMessagesInPublishOrderOverRealXMPP pins the paper's ordering
// promise on the production path: what one phone publishes on a channel, the
// collector's script handles in the same order. The transport delivers in
// order; the last hop, broker → scheduler → script, has to keep it.
func TestScriptSeesMessagesInPublishOrderOverRealXMPP(t *testing.T) {
	const n = 5000
	srv := xmpp.NewServer(xmpp.ServerConfig{AllowAutoRegister: true})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Associate("researcher", "phone")

	node := func(id string, mode Mode) *Node {
		m, err := transport.DialXMPP(srv.Addr(), id, "pw", "r")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		nd, err := NewNode(Config{ID: id, Mode: mode, Clock: vclock.Real{}, Messenger: m, FlushPolicy: FlushImmediate})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nd.Close)
		return nd
	}
	col, phone := node("researcher", CollectorMode), node("phone", DeviceMode)

	var mu sync.Mutex
	var got []string
	col.Logs().SetOnAppend(func(log, line string) {
		if log == "seq" {
			mu.Lock()
			got = append(got, line)
			mu.Unlock()
		}
	})
	logged := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(got)
	}
	if err := col.DeployLocal("sink.js", `subscribe('seq', function (m) { logTo('seq', '' + m.n); });`); err != nil {
		t.Fatal(err)
	}

	// The phone learns of the collector's subscription over the wire; publish
	// once its proxy is installed.
	var broker *pubsub.Broker
	for deadline := time.Now().Add(10 * time.Second); broker == nil || !broker.HasSubscribers("seq"); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("phone never installed the proxy subscription")
		}
		if ctx := phone.Contexts()["researcher"]; ctx != nil {
			broker = ctx.Broker()
		}
	}
	for i := 0; i < n; i++ {
		broker.Publish("seq", msg.Map{"n": float64(i)})
	}
	for deadline := time.Now().Add(30 * time.Second); logged() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d messages logged", logged(), n)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i, line := range got {
		if line != strconv.Itoa(i) {
			t.Fatalf("log line %d is message %s (%d lines logged)", i, line, len(got))
		}
	}
}
