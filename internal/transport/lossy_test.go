package transport

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"pogo/internal/faultnet"
	"pogo/internal/msg"
	"pogo/internal/store"
	"pogo/internal/vclock"
)

// The fault layer must be a drop-in Messenger so chaos tests can wrap real
// switchboard ports (and, structurally, any other messenger).
var _ Messenger = (*faultnet.Fault)(nil)

// faultPair builds two wired switchboard ports, "a" and "b", wrapped in one
// fault domain.
func faultPair(clk *vclock.Sim, cfg faultnet.Config) (*faultnet.Net, *faultnet.Fault, *faultnet.Fault) {
	sb := NewSwitchboard(clk)
	sb.Associate("a", "b")
	net := faultnet.New(clk, cfg)
	return net, net.Wrap(sb.Port("a", nil)), net.Wrap(sb.Port("b", nil))
}

// Property: for any seeded fault schedule (drop, duplicate, corrupt, delay
// jitter) with eventual connectivity, every message is delivered exactly
// once and each channel arrives in FIFO order.
func TestPropertyExactlyOncePerChannelFIFO(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 25,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(r.Int63())
			args[1] = reflect.ValueOf(r.Intn(50))     // drop pct
			args[2] = reflect.ValueOf(r.Intn(40))     // duplicate pct
			args[3] = reflect.ValueOf(r.Intn(30))     // corrupt pct
			args[4] = reflect.ValueOf(1 + r.Intn(25)) // messages per channel
		},
	}
	channels := []string{"battery", "clusters"}
	prop := func(seed int64, dropPct, dupPct, corruptPct, perChan int) bool {
		clk := vclock.NewSim()
		net, fa, fb := faultPair(clk, faultnet.Config{
			Seed:      seed,
			Drop:      float64(dropPct) / 100,
			Duplicate: float64(dupPct) / 100,
			Corrupt:   float64(corruptPct) / 100,
			MaxDelay:  120 * time.Millisecond,
		})
		epA := NewEndpoint(fa, store.OpenMemory(), clk, EndpointConfig{RetryAfter: 2 * time.Second})
		epB := NewEndpoint(fb, store.OpenMemory(), clk, EndpointConfig{RetryAfter: 2 * time.Second})
		got := map[string][]float64{}
		epB.OnMessage(func(_, ch string, payload msg.Value) {
			n, _ := msg.GetNumber(payload.(msg.Raw), "n")
			got[ch] = append(got[ch], n)
		})
		for i := 0; i < perChan; i++ {
			for _, ch := range channels {
				if err := epA.Enqueue("b", ch, msg.Map{"n": float64(i)}); err != nil {
					return false
				}
			}
		}
		// Faulty phase: flush periodically while the net misbehaves.
		for i := 0; i < 60; i++ {
			epA.Flush()
			clk.Advance(3 * time.Second)
		}
		// Eventual connectivity: the faults stop, delivery must complete.
		net.Calm()
		for i := 0; i < 300 && epA.Pending() > 0; i++ {
			epA.Flush()
			clk.Advance(3 * time.Second)
		}
		if epA.Pending() != 0 {
			t.Logf("seed=%d drop=%d dup=%d corrupt=%d: %d undelivered",
				seed, dropPct, dupPct, corruptPct, epA.Pending())
			return false
		}
		for _, ch := range channels {
			ns := got[ch]
			if len(ns) != perChan {
				t.Logf("seed=%d: channel %s delivered %d of %d", seed, ch, len(ns), perChan)
				return false
			}
			for i, n := range ns {
				if n != float64(i) {
					t.Logf("seed=%d: channel %s position %d = %v (FIFO violated)", seed, ch, i, n)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Determinism: identical seeds must give identical transport stats, fault
// stats, and delivery counts.
func TestLossyRunDeterministic(t *testing.T) {
	run := func() (Stats, faultnet.Stats, int) {
		clk := vclock.NewSim()
		net, fa, fb := faultPair(clk, faultnet.Config{
			Seed:      99,
			Drop:      0.3,
			Duplicate: 0.15,
			Corrupt:   0.1,
			MaxDelay:  40 * time.Millisecond,
		})
		epA := NewEndpoint(fa, store.OpenMemory(), clk, EndpointConfig{RetryAfter: time.Second})
		epB := NewEndpoint(fb, store.OpenMemory(), clk, EndpointConfig{})
		delivered := 0
		epB.OnMessage(func(string, string, msg.Value) { delivered++ })
		for i := 0; i < 20; i++ {
			epA.Enqueue("b", "ch", msg.Map{"n": float64(i)})
		}
		for i := 0; i < 50; i++ {
			epA.Flush()
			clk.Advance(2 * time.Second)
		}
		return epA.Stats(), net.Stats(), delivered
	}
	s1, f1, d1 := run()
	s2, f2, d2 := run()
	if s1 != s2 || f1 != f2 || d1 != d2 {
		t.Errorf("non-deterministic:\n%+v / %+v / %d\n%+v / %+v / %d", s1, f1, d1, s2, f2, d2)
	}
}

// An asymmetric partition cuts a→b while b→a stays open: b's data still
// reaches a, but a's acks die at the cut, so b retransmits until the heal.
func TestAsymmetricPartitionAndHeal(t *testing.T) {
	clk := vclock.NewSim()
	net, fa, fb := faultPair(clk, faultnet.Config{Seed: 7})
	epA := NewEndpoint(fa, store.OpenMemory(), clk, EndpointConfig{RetryAfter: 2 * time.Second})
	epB := NewEndpoint(fb, store.OpenMemory(), clk, EndpointConfig{RetryAfter: 2 * time.Second})
	var atA []float64
	epA.OnMessage(func(_, _ string, payload msg.Value) {
		n, _ := msg.GetNumber(payload.(msg.Raw), "n")
		atA = append(atA, n)
	})

	net.Partition("a", "b")
	if !net.Partitioned("a", "b") || net.Partitioned("b", "a") {
		t.Fatal("partition not asymmetric")
	}

	// a → b is cut: nothing arrives, the entry stays pending.
	epA.Enqueue("b", "ch", msg.Map{"n": 0.0})
	epA.Flush()
	clk.Advance(10 * time.Second)
	if epB.Stats().MessagesReceived != 0 || epA.Pending() != 1 {
		t.Fatalf("cut direction leaked: recv=%d pending=%d", epB.Stats().MessagesReceived, epA.Pending())
	}

	// b → a is open: data is delivered exactly once despite retransmits,
	// but the ack (a → b) dies at the cut so b's outbox stays occupied.
	epB.Enqueue("a", "ch", msg.Map{"n": 1.0})
	for i := 0; i < 5; i++ {
		epB.Flush()
		clk.Advance(3 * time.Second)
	}
	if len(atA) != 1 || atA[0] != 1.0 {
		t.Fatalf("open direction delivered %v, want [1]", atA)
	}
	if epB.Pending() != 1 {
		t.Fatalf("ack crossed a partitioned direction: pending=%d", epB.Pending())
	}
	if net.Stats().PartitionDrops == 0 {
		t.Error("no partition drops counted")
	}

	// Heal: both directions drain.
	net.Heal("a", "b")
	for i := 0; i < 10 && (epA.Pending() > 0 || epB.Pending() > 0); i++ {
		epA.Flush()
		epB.Flush()
		clk.Advance(5 * time.Second)
	}
	if epA.Pending() != 0 || epB.Pending() != 0 {
		t.Errorf("after heal: pendingA=%d pendingB=%d", epA.Pending(), epB.Pending())
	}
	if st := epB.Stats(); st.MessagesReceived != 1 {
		t.Errorf("b received %d, want 1 (dedup across retransmits)", st.MessagesReceived)
	}
}

// A reboot replays the durable outbox through a reinstalled port: the
// surviving entries arrive in FIFO order with no duplicates, and the
// receiver re-anchors its sequence cursor from the new boot's floors.
func TestEndpointRebootReplaysOutboxInOrder(t *testing.T) {
	clk := vclock.NewSim()
	sb := NewSwitchboard(clk)
	sb.Associate("phone", "col")
	path := filepath.Join(t.TempDir(), "outbox.log")
	box, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ep := NewEndpoint(sb.Port("phone", nil), box, clk, EndpointConfig{BootID: "boot1"})
	col := NewEndpoint(sb.Port("col", nil), store.OpenMemory(), clk, EndpointConfig{})
	var got []float64
	col.OnMessage(func(_, _ string, payload msg.Value) {
		n, _ := msg.GetNumber(payload.(msg.Raw), "n")
		got = append(got, n)
	})

	for i := 0; i < 6; i++ {
		ep.Enqueue("col", "ch", msg.Map{"n": float64(i)})
	}
	ep.Flush()
	clk.Advance(time.Second)
	if ep.Pending() != 0 {
		t.Fatalf("pre-reboot pending = %d", ep.Pending())
	}
	// Three more enqueued but never flushed before the battery dies.
	for i := 6; i < 9; i++ {
		ep.Enqueue("col", "ch", msg.Map{"n": float64(i)})
	}
	if err := box.Close(); err != nil {
		t.Fatal(err)
	}

	// Reboot: reopen the outbox, reinstall the port, new boot id.
	box2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer box2.Close()
	ep2 := NewEndpoint(sb.Port("phone", nil), box2, clk, EndpointConfig{BootID: "boot2"})
	ep2.Flush()
	clk.Advance(time.Second)
	if ep2.Pending() != 0 {
		t.Fatalf("post-reboot pending = %d", ep2.Pending())
	}
	want := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8}
	if len(got) != len(want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivered %v, want %v", got, want)
		}
	}
	// Sequences continue where the last boot stopped.
	if err := ep2.Enqueue("col", "ch", msg.Map{"n": 9.0}); err != nil {
		t.Fatal(err)
	}
	if p := box2.Pending(); len(p) != 1 || p[0].Seq != 9 {
		t.Fatalf("post-reboot enqueue got seq %+v, want 9", p)
	}
}

// Acks carry bare outbox IDs, so an ID must never be handed out twice: an
// ack that was still on its way when the phone rebooted — here for the first
// message of the last boot, long delivered and acknowledged — must not delete
// whatever the new boot has buffered since.
func TestStaleAckAfterRebootLeavesNewEntryPending(t *testing.T) {
	clk := vclock.NewSim()
	sb := NewSwitchboard(clk)
	sb.Associate("phone", "col")
	path := filepath.Join(t.TempDir(), "outbox.log")
	box, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ep := NewEndpoint(sb.Port("phone", nil), box, clk, EndpointConfig{BootID: "boot1"})
	col := NewEndpoint(sb.Port("col", nil), store.OpenMemory(), clk, EndpointConfig{})
	for i := 0; i < 100; i++ {
		ep.Enqueue("col", "ch", msg.Map{"n": float64(i)})
	}
	ep.Flush()
	clk.Advance(time.Second)
	if ep.Pending() != 0 || col.Stats().MessagesReceived != 100 {
		t.Fatalf("pre-reboot: pending %d, delivered %d", ep.Pending(), col.Stats().MessagesReceived)
	}
	if err := box.Close(); err != nil {
		t.Fatal(err)
	}

	box2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer box2.Close()
	ep2 := NewEndpoint(sb.Port("phone", nil), box2, clk, EndpointConfig{BootID: "boot2"})
	if err := ep2.Enqueue("col", "ch", msg.Map{"n": 100.0}); err != nil {
		t.Fatal(err)
	}
	stale := append([]byte(nil), frameHeader[:]...)
	stale = frameInto(appendEnvelope(stale, new(chanTable), "col", "", nil, []uint64{1}, nil, nil))
	ep2.receive("col", stale)
	if p := box2.Pending(); len(p) != 1 || p[0].ID != 101 {
		t.Fatalf("after a stale ack for ID 1: %+v buffered, want the new message alone, as ID 101", p)
	}
	ep2.Flush()
	clk.Advance(time.Second)
	if ep2.Pending() != 0 || col.Stats().MessagesReceived != 101 {
		t.Errorf("post-reboot: pending %d, delivered %d of 101", ep2.Pending(), col.Stats().MessagesReceived)
	}
}

func ExampleEndpoint() {
	clk := vclock.NewSim()
	sb := NewSwitchboard(clk)
	sb.Associate("phone", "collector")
	phone := NewEndpoint(sb.Port("phone", nil), store.OpenMemory(), clk, EndpointConfig{})
	collector := NewEndpoint(sb.Port("collector", nil), store.OpenMemory(), clk, EndpointConfig{})

	collector.OnMessage(func(from, channel string, payload msg.Value) {
		v, _ := msg.GetNumber(payload.(msg.Raw), "voltage")
		fmt.Printf("%s/%s: %.1f V\n", from, channel, v)
	})
	phone.Enqueue("collector", "battery", msg.Map{"voltage": 4.1})
	phone.Flush()
	clk.Advance(time.Second)
	fmt.Println("pending after ack:", phone.Pending())
	// Output:
	// phone/battery: 4.1 V
	// pending after ack: 0
}
