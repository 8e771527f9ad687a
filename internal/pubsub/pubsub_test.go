package pubsub

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"pogo/internal/msg"
	"pogo/internal/obs"
)

func TestPublishDeliversToSubscribers(t *testing.T) {
	b := New()
	var got []msg.Raw
	b.Subscribe("battery", nil, func(ev Event) { got = append(got, ev.Message) })
	n := b.Publish("battery", msg.Map{"voltage": 3.9})
	if n != 1 {
		t.Errorf("Publish delivered to %d, want 1", n)
	}
	if v, _ := msg.GetNumber(got[0], "voltage"); len(got) != 1 || v != 3.9 {
		t.Errorf("got %v", got)
	}
}

func TestPublishOnlyMatchingChannel(t *testing.T) {
	b := New()
	hits := 0
	b.Subscribe("a", nil, func(Event) { hits++ })
	b.Publish("b", msg.Map{})
	if hits != 0 {
		t.Error("subscriber on channel a received channel b message")
	}
}

// TestSubscriberCopyOnWrite pins the delivery contract: every subscriber
// reads the same encoded message, and MutableMessage gives a handler a
// private tree whose writes leak neither to other subscribers nor back to
// the publisher.
func TestSubscriberCopyOnWrite(t *testing.T) {
	b := New()
	reg := obs.NewRegistry()
	b.Instrument(reg, time.Now, "n", "n")
	var seen []msg.Raw
	first := true
	b.Subscribe("c", nil, func(ev Event) {
		seen = append(seen, ev.Message)
		if first {
			first = false
			m := ev.MutableMessage()
			m["mutated"] = true
			m["nested"].(msg.Map)["x"] = 99.0
		}
	})
	b.Subscribe("c", nil, func(ev Event) {
		seen = append(seen, ev.Message)
		if _, ok := msg.Get(ev.Message, "mutated"); ok {
			t.Error("first subscriber's mutation leaked to a peer in the same fanout")
		}
	})
	orig := msg.Map{"nested": msg.Map{"x": 1.0}}
	b.Publish("c", orig)
	b.Publish("c", orig)
	if len(seen) != 4 || seen[0] != seen[1] || seen[2] != seen[3] {
		t.Fatalf("subscribers of one publish saw different messages: %v", seen)
	}
	for _, r := range seen {
		if !msg.Equal(r, msg.Map{"nested": msg.Map{"x": 1.0}}) {
			t.Errorf("delivered %v", r.Map())
		}
	}
	if _, ok := orig["mutated"]; ok {
		t.Error("subscriber mutated publisher's message")
	}
	if n := reg.CounterValue("msg_cow_clones", obs.L("node", "n")); n != 1 {
		t.Errorf("msg_cow_clones = %d, want 1", n)
	}
}

// TestPublishRaw: an encoded message is delivered as it is — the same bytes,
// no copy — and booked as a freeze hit; Publish encodes a map and is not.
func TestPublishRaw(t *testing.T) {
	b := New()
	reg := obs.NewRegistry()
	b.Instrument(reg, time.Now, "n", "n")
	var got []msg.Raw
	b.Subscribe("c", nil, func(ev Event) { got = append(got, ev.Message) })

	r, err := msg.Encode(msg.Map{"nested": msg.Map{"x": 1.0}})
	if err != nil {
		t.Fatal(err)
	}
	b.PublishRaw("c", r)
	if len(got) != 1 || got[0] != r {
		t.Fatalf("delivered %v, want the published Raw itself", got)
	}
	if hits := reg.CounterValue("msg_freeze_hits", obs.L("node", "n")); hits != 1 {
		t.Errorf("PublishRaw booked %d freeze hits, want 1", hits)
	}
	b.Publish("c", msg.Map{"n": 1.0})
	if hits := reg.CounterValue("msg_freeze_hits", obs.L("node", "n")); hits != 1 {
		t.Errorf("Publish of a map booked a freeze hit (%d)", hits)
	}
	if n := reg.CounterValue("pubsub_publishes_total", obs.L("node", "n")); n != 2 {
		t.Errorf("publishes = %d, want 2", n)
	}
}

// TestPublishRefusesWhatDoesNotEncode: a map outside the message domain
// reaches no subscriber, local or proxy, and Publish says so.
func TestPublishRefusesWhatDoesNotEncode(t *testing.T) {
	b := New()
	hits := 0
	b.Subscribe("c", nil, func(Event) { hits++ })
	if n := b.Publish("c", msg.Map{"bad": make(chan int)}); n != 0 || hits != 0 {
		t.Errorf("Publish of a non-encodable map = %d, %d deliveries", n, hits)
	}
}

// TestPublishAllocations: publishing a map costs its one encoding however
// many subscribers read it; an encoded message costs nothing.
func TestPublishAllocations(t *testing.T) {
	b := New()
	for i := 0; i < 16; i++ {
		b.Subscribe("c", nil, func(ev Event) { _, _ = msg.GetNumber(ev.Message, "level") })
	}
	m := msg.Map{"level": 80.0, "voltage": 3.9}
	// Under -race, sync.Pool drops what it is given now and then.
	if n := testing.AllocsPerRun(100, func() { b.Publish("c", m) }); n != 1 && !raceEnabled {
		t.Errorf("Publish: %v allocs, want 1", n)
	}
	r, _ := msg.Encode(m)
	if n := testing.AllocsPerRun(100, func() { b.PublishRaw("c", r) }); n != 0 {
		t.Errorf("PublishRaw: %v allocs, want 0", n)
	}
}

// TestFrozenSharingNoRaces: many subscribers reading the same encoded
// message on their own goroutines while half of them build and write trees
// — run under -race (make check does) this proves sharing is race-free and
// writers are isolated.
func TestFrozenSharingNoRaces(t *testing.T) {
	b := New()
	const subscribers = 16
	var wg sync.WaitGroup
	for i := 0; i < subscribers; i++ {
		mutate := i%2 == 0
		b.Subscribe("shared", nil, func(ev Event) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if mutate {
					m := ev.MutableMessage()
					m["private"] = true
					m["nested"].(msg.Map)["x"] = 2.0
				} else if x, _ := msg.GetNumber(ev.Message, "nested.x"); x != 1.0 {
					t.Error("reader saw a writer's private mutation")
				}
			}()
		})
	}
	for i := 0; i < 50; i++ {
		b.Publish("shared", msg.Map{"nested": msg.Map{"x": 1.0}, "n": float64(i)})
	}
	wg.Wait()
}

func TestReleaseRenewIdempotent(t *testing.T) {
	b := New()
	hits := 0
	sub := b.Subscribe("ch", nil, func(Event) { hits++ })

	b.Publish("ch", msg.Map{})
	sub.Release()
	sub.Release() // idempotent
	b.Publish("ch", msg.Map{})
	if hits != 1 {
		t.Fatalf("hits = %d after release, want 1", hits)
	}
	sub.Renew()
	sub.Renew() // idempotent
	b.Publish("ch", msg.Map{})
	if hits != 2 {
		t.Errorf("hits = %d after renew, want 2", hits)
	}
	if !sub.Active() {
		t.Error("Active = false after renew")
	}
}

func TestCloseRemovesSubscription(t *testing.T) {
	b := New()
	hits := 0
	sub := b.Subscribe("ch", nil, func(Event) { hits++ })
	sub.Close()
	b.Publish("ch", msg.Map{})
	if hits != 0 {
		t.Error("closed subscription still received events")
	}
	sub.Renew() // no-op after close
	if sub.Active() {
		t.Error("Renew reactivated a closed subscription")
	}
	if b.HasSubscribers("ch") {
		t.Error("HasSubscribers true after close")
	}
}

func TestSubscriptionParams(t *testing.T) {
	b := New()
	params := msg.Map{"interval": 60000.0, "provider": "GPS"}
	sub := b.Subscribe("location", params, func(Event) {})

	// Mutating the caller's map must not affect the stored params: Subscribe
	// froze its own snapshot.
	params["interval"] = 1.0
	got := sub.Params()
	if got["interval"].(float64) != 60000.0 {
		t.Error("params not snapshotted on subscribe")
	}
	// Params is shared — no per-call copy. Writers clone.
	if reflect.ValueOf(sub.Params()).Pointer() != reflect.ValueOf(got).Pointer() {
		t.Error("Params copied per call")
	}
	mine := msg.Clone(got).(msg.Map)
	mine["provider"] = "NETWORK"
	if sub.Params()["provider"].(string) != "GPS" {
		t.Error("cloned copy aliased internal state")
	}

	infos := b.Subscriptions("location")
	if len(infos) != 1 || infos[0].Params["interval"].(float64) != 60000.0 {
		t.Errorf("Subscriptions = %+v", infos)
	}
}

func TestNilParams(t *testing.T) {
	b := New()
	sub := b.Subscribe("x", nil, func(Event) {})
	if sub.Params() != nil {
		t.Errorf("Params = %v, want nil", sub.Params())
	}
}

func TestEventFields(t *testing.T) {
	b := New()
	var ev Event
	b.Subscribe("wifi-scan", msg.Map{"interval": 5.0}, func(e Event) { ev = e })
	r, _ := msg.Encode(msg.Map{"aps": []msg.Value{}})
	b.PublishTraced("wifi-scan", r, "device-3", 0)
	if ev.Channel != "wifi-scan" {
		t.Errorf("Channel = %q", ev.Channel)
	}
	if ev.Origin != "device-3" {
		t.Errorf("Origin = %q", ev.Origin)
	}
	if ev.Params["interval"].(float64) != 5.0 {
		t.Errorf("Params = %v", ev.Params)
	}
}

func TestHasSubscribersTracksActivation(t *testing.T) {
	b := New()
	if b.HasSubscribers("ch") {
		t.Error("HasSubscribers on empty broker")
	}
	sub := b.Subscribe("ch", nil, func(Event) {})
	if !b.HasSubscribers("ch") {
		t.Error("HasSubscribers false after subscribe")
	}
	sub.Release()
	if b.HasSubscribers("ch") {
		t.Error("HasSubscribers true after release")
	}
	sub.Renew()
	if !b.HasSubscribers("ch") {
		t.Error("HasSubscribers false after renew")
	}
}

func TestOnSubscriptionChange(t *testing.T) {
	b := New()
	var events []string
	cancel := b.OnSubscriptionChange("wifi-scan", func(ch string) {
		events = append(events, ch)
	})

	sub := b.Subscribe("wifi-scan", nil, func(Event) {})
	b.Subscribe("other", nil, func(Event) {}) // must not notify
	sub.Release()
	sub.Renew()
	if len(events) != 3 {
		t.Fatalf("events = %v, want 3 notifications", events)
	}
	cancel()
	sub.Release()
	if len(events) != 3 {
		t.Error("watcher fired after cancel")
	}
}

func TestOnSubscriptionChangeWildcard(t *testing.T) {
	b := New()
	var channels []string
	b.OnSubscriptionChange("", func(ch string) { channels = append(channels, ch) })
	b.Subscribe("a", nil, func(Event) {})
	b.Subscribe("b", nil, func(Event) {})
	if !reflect.DeepEqual(channels, []string{"a", "b"}) {
		t.Errorf("channels = %v", channels)
	}
}

func TestChannels(t *testing.T) {
	b := New()
	s1 := b.Subscribe("a", nil, func(Event) {})
	b.Subscribe("b", nil, func(Event) {})
	chans := b.Channels()
	if len(chans) != 2 {
		t.Errorf("Channels = %v", chans)
	}
	s1.Release()
	chans = b.Channels()
	if len(chans) != 1 || chans[0] != "b" {
		t.Errorf("Channels after release = %v", chans)
	}
}

func TestNilHandlerSubscription(t *testing.T) {
	b := New()
	b.Subscribe("demand", msg.Map{"interval": 1.0}, nil)
	if !b.HasSubscribers("demand") {
		t.Error("nil-handler subscription not counted as demand")
	}
	if n := b.Publish("demand", msg.Map{}); n != 0 {
		t.Errorf("delivered to %d nil handlers", n)
	}
}

func TestConcurrentPublishSubscribe(t *testing.T) {
	b := New()
	var mu sync.Mutex
	total := 0
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub := b.Subscribe("ch", nil, func(Event) {
				mu.Lock()
				total++
				mu.Unlock()
			})
			for j := 0; j < 50; j++ {
				b.Publish("ch", msg.Map{"j": float64(j)})
			}
			sub.Close()
		}()
	}
	wg.Wait()
	if total == 0 {
		t.Error("no deliveries under concurrency")
	}
}

// Property: after an arbitrary sequence of release/renew toggles, the number
// of deliveries equals the number of publishes issued while active.
func TestPropertyToggleDeliveryCount(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(args []reflect.Value, r *rand.Rand) {
			ops := make([]byte, r.Intn(40))
			for i := range ops {
				ops[i] = byte(r.Intn(3)) // 0=publish 1=release 2=renew
			}
			args[0] = reflect.ValueOf(ops)
		},
	}
	prop := func(ops []byte) bool {
		b := New()
		hits := 0
		sub := b.Subscribe("ch", nil, func(Event) { hits++ })
		want := 0
		active := true
		for _, op := range ops {
			switch op {
			case 0:
				b.Publish("ch", msg.Map{})
				if active {
					want++
				}
			case 1:
				sub.Release()
				active = false
			case 2:
				sub.Renew()
				active = true
			}
		}
		return hits == want
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestPubsubConcurrentPublish: handlers run on whichever goroutine calls
// Publish, so a broker shared across parallel fleet shards fans out from
// several goroutines at once. Every publish must still reach every
// subscriber exactly once — `make check` runs this under -race.
func TestPubsubConcurrentPublish(t *testing.T) {
	const publishers, perPublisher, subscribers = 8, 200, 5
	br := New()
	var delivered atomic.Int64
	for i := 0; i < subscribers; i++ {
		br.Subscribe("bench", nil, func(Event) { delivered.Add(1) })
	}
	payload := msg.Map{"n": 1.0}
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				br.Publish("bench", payload)
			}
		}()
	}
	wg.Wait()
	if want := int64(publishers * perPublisher * subscribers); delivered.Load() != want {
		t.Errorf("deliveries = %d, want %d", delivered.Load(), want)
	}
}
