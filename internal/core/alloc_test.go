package core

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"pogo/internal/msg"
	"pogo/internal/transport"
	"pogo/internal/vclock"
)

// TestDeliveredMessageAllocations pins what one message's whole journey
// allocates in a simulated world, the stream_sat path of the end-to-end
// benchmark on the switchboard every simulated world runs: a publish into the
// phone's context broker, its proxy subscription, the outbox, the flush and
// its retransmission timer, the envelope across the switchboard, the
// collector's receive and ack, its broker, the scheduler hop into the script,
// and a logTo(origin + ' ' + m.n) like the benchmark's sink. It was 21 while
// the phone's broker deep-cloned the map to freeze it, the outbox copied the
// encoding, and the collector decoded every body into a tree and memoized
// it; 32 while the script made a string per + and formatted numbers on their
// own, boxed the origin for each call, logTo built an argument slice, every
// dispatch and flush built a closure, and every flush stopped its retry
// timer and armed a new one.
func TestDeliveredMessageAllocations(t *testing.T) {
	clk := vclock.NewSim()
	sb := transport.NewSwitchboard(clk)
	sb.Associate("collector", "phone")
	col, err := NewNode(Config{ID: "collector", Mode: CollectorMode, Clock: clk, Messenger: sb.Port("collector", nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	phone, err := NewNode(Config{ID: "phone", Mode: DeviceMode, Clock: clk, Messenger: sb.Port("phone", nil), FlushPolicy: FlushImmediate})
	if err != nil {
		t.Fatal(err)
	}
	defer phone.Close()
	if err := col.DeployLocal("sink.js", `subscribe('sample', function (m, origin) {
  logTo('sink', origin + ' ' + m.n);
});`); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	ctx := phone.Contexts()["collector"]
	if ctx == nil {
		t.Fatal("the collector's subscription never reached the phone")
	}
	broker := ctx.Broker()
	m := msg.Map{"n": 0.0, "level": 57.0, "voltage": 3.912, "charging": false}
	seq := 0
	deliver := func() {
		seq++
		m["n"] = float64(seq)
		broker.Publish("sample", m)
		clk.Advance(20 * time.Millisecond)
	}
	for i := 0; i < 200; i++ {
		deliver() // warm the pools, caches and slices
	}
	per := testing.AllocsPerRun(1000, deliver)
	lines := col.Logs().Lines("sink")
	if len(lines) != seq || lines[seq-1] != fmt.Sprintf("phone %d", seq) || phone.Pending() != 0 {
		t.Fatalf("%d of %d messages logged, last %q, %d pending", len(lines), seq, lines[len(lines)-1], phone.Pending())
	}
	budget := 16.0
	if raceEnabled {
		budget += 8 // the wire-buffer pools leak under -race
	}
	if per > budget {
		t.Errorf("a delivered message allocates %v times, want ≤ %v", per, budget)
	} else {
		t.Logf("a delivered message allocates %v times", per)
	}
}

// TestPublishAllocations pins the phone's half of a message's journey: a Go
// publisher's 20-AP scan through the context broker and the collector's
// proxy subscription into a file-backed outbox. The broker encodes the map
// once into a buffer of exactly its size, and the outbox record is written
// from those bytes and keeps them. It was 45 while the broker deep-cloned
// the map to freeze it and the outbox copied the encoding.
func TestPublishAllocations(t *testing.T) {
	clk := vclock.NewSim()
	sb := transport.NewSwitchboard(clk)
	sb.Associate("collector", "phone")
	col, err := NewNode(Config{ID: "collector", Mode: CollectorMode, Clock: clk, Messenger: sb.Port("collector", nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	phone, err := NewNode(Config{ID: "phone", Mode: DeviceMode, Clock: clk, Messenger: sb.Port("phone", nil),
		OutboxPath: filepath.Join(t.TempDir(), "outbox.log")})
	if err != nil {
		t.Fatal(err)
	}
	defer phone.Close()
	if err := col.DeployLocal("scans.js", `subscribe('scan', function (m) {});`); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	ctx := phone.Contexts()["collector"]
	if ctx == nil {
		t.Fatal("the collector's subscription never reached the phone")
	}
	aps := make([]msg.Value, 20)
	for i := range aps {
		aps[i] = msg.Map{
			"bssid": fmt.Sprintf("00:11:22:33:44:%02x", i),
			"ssid":  fmt.Sprintf("net-%d", i),
			"rssi":  float64(-100 + 3*i),
			"local": i%10 == 9,
		}
	}
	scan := msg.Map{"timestamp": 0.0, "aps": aps}
	broker := ctx.Broker()
	n := 0
	publish := func() {
		n++
		scan["timestamp"] = float64(n)
		if broker.Publish("scan", scan) != 1 {
			t.Fatal("the scan reached no proxy")
		}
	}
	for i := 0; i < 100; i++ {
		publish() // warm the outbox's buffers and slices
	}
	per := testing.AllocsPerRun(1000, publish)
	if pending := phone.Pending(); pending != n {
		t.Fatalf("%d of %d scans in the outbox", pending, n)
	}
	budget := 2.0
	if raceEnabled {
		budget += 16 // sync.Pool drops what it is given now and then under -race
	}
	if per > budget {
		t.Errorf("publishing a 20-AP scan allocates %v times, want ≤ %v", per, budget)
	} else {
		t.Logf("publishing a 20-AP scan allocates %v times", per)
	}
}
