package xmpp

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"pogo/internal/obs"
	"pogo/internal/vclock"
)

// queued returns how many stanzas wait for user's next session.
func queued(s *Switchboard, user string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queues[user])
}

var errStale = errors.New("stale sink")

// record is what one session was sent: delivered stanza IDs, presence as
// "user+"/"user-", and bounced IDs.
type record struct {
	got, presence, bounced []string
}

// fakeSink records what the switchboard writes to it, and its presence
// events also to a log shared by all sinks, which shows fan-out order. It
// accepts budget more deliveries (a negative budget never runs out) and
// fails every one after.
type fakeSink struct {
	budget int
	name   string
	log    *[]string
	record
}

func (f *fakeSink) Deliver(m Stanza) error {
	if f.budget == 0 {
		return errStale
	}
	f.budget--
	f.got = append(f.got, m.ID)
	return nil
}

func (f *fakeSink) Presence(user string, available bool) {
	f.presence = append(f.presence, presenceEvent(user, available))
	*f.log = append(*f.log, f.name+":"+presenceEvent(user, available))
}

func (f *fakeSink) Bounce(m Stanza, reason string) { f.bounced = append(f.bounced, m.ID) }

func presenceEvent(user string, available bool) string {
	if available {
		return user + "+"
	}
	return user + "-"
}

// model is the reference switchboard: plain maps and slices, one op at a
// time, written from the rules rather than from the code.
type model struct {
	roster  map[[2]string]bool
	session map[string]*fakeSink
	queue   map[string][]Stanza
	budget  map[*fakeSink]int
	want    map[*fakeSink]*record
	evicted map[string]bool
	routed  map[string][2]string // allowed stanza ID → (sender, recipient)
	log     []string             // every sink's presence events, in order
}

func (m *model) contacts(a, b string) bool {
	return a == b || m.roster[[2]string{a, b}] || m.roster[[2]string{b, a}]
}

// announce tells user's attached contacts, in sorted order, that it came or
// went.
func (m *model) announce(user string, available bool) {
	var peers []string
	for p := range m.session {
		if p != user && m.contacts(user, p) {
			peers = append(peers, p)
		}
	}
	sort.Strings(peers)
	for _, p := range peers {
		m.presence(m.session[p], user, available)
	}
}

func (m *model) presence(sink *fakeSink, user string, available bool) {
	r := m.want[sink]
	r.presence = append(r.presence, presenceEvent(user, available))
	m.log = append(m.log, sink.name+":"+presenceEvent(user, available))
}

func (m *model) enqueue(user string, st Stanza, front bool) {
	q := m.queue[user]
	if front {
		q = append([]Stanza{st}, q...)
	} else {
		q = append(q, st)
	}
	for len(q) > queueCap {
		m.evicted[q[0].ID] = true
		q = q[1:]
	}
	m.queue[user] = q
}

// deliver hands st to sink as the real sink would take it.
func (m *model) deliver(sink *fakeSink, st Stanza) bool {
	if m.budget[sink] == 0 {
		return false
	}
	m.budget[sink]--
	m.want[sink].got = append(m.want[sink].got, st.ID)
	return true
}

func (m *model) detach(user string) {
	delete(m.session, user)
	m.announce(user, false)
}

func (m *model) attach(user string, sink *fakeSink) {
	m.session[user] = sink
	m.announce(user, true)
	for m.session[user] == sink && len(m.queue[user]) > 0 {
		st := m.queue[user][0]
		m.queue[user] = m.queue[user][1:]
		if !m.deliver(sink, st) {
			m.enqueue(user, st, true)
			m.detach(user)
		}
	}
}

func (m *model) route(from, to string, st Stanza) {
	if !m.contacts(from, to) {
		if src := m.session[from]; src != nil {
			m.want[src].bounced = append(m.want[src].bounced, st.ID)
		}
		return
	}
	m.routed[st.ID] = [2]string{from, to}
	for {
		dst := m.session[to]
		if dst == nil {
			m.enqueue(to, st, false)
			return
		}
		if m.deliver(dst, st) {
			return
		}
		m.detach(to)
	}
}

var modelUsers = []string{"u0", "u1", "u2", "u3"}

// runSwitchboardModel decodes data into ops — attach (with a delivery
// budget), detach (of any handle the user ever had, stale ones included),
// route (one stanza or a burst that can overflow a queue), sink going stale,
// associate — and drives them through the switchboard and the
// model in step, checking after every op that both wrote the same things to
// every session and hold the same queues.
func runSwitchboardModel(t *testing.T, data []byte) {
	if len(data) > 3*2000 {
		data = data[:3*2000]
	}
	sw := NewSwitchboard(vclock.NewSim(), nil)
	m := &model{
		roster:  map[[2]string]bool{},
		session: map[string]*fakeSink{},
		queue:   map[string][]Stanza{},
		budget:  map[*fakeSink]int{},
		want:    map[*fakeSink]*record{},
		evicted: map[string]bool{},
		routed:  map[string][2]string{},
	}
	handles := map[string][]*fakeSink{} // every sink each user attached
	var sinks []*fakeSink               // in attach order
	var log []string
	ids := 0
	for i := 0; i+2 < len(data); i += 3 {
		op, a, b := data[i]%7, modelUsers[data[i+1]%4], modelUsers[data[i+2]%4]
		switch op {
		case 0: // attach a; b's byte picks the budget, mostly unlimited
			budget := -1
			if n := int(data[i+2]); n < 64 {
				budget = n % 4
			}
			sink := &fakeSink{budget: budget, name: strconv.Itoa(len(sinks)), log: &log}
			m.budget[sink], m.want[sink] = budget, &record{}
			sinks = append(sinks, sink)
			sw.Attach(a, sink)
			handles[a] = append(handles[a], sink)
			m.attach(a, sink)
		case 1: // detach one of a's handles
			hs := handles[a]
			if len(hs) == 0 {
				continue
			}
			sink := hs[int(data[i+2])%len(hs)]
			sw.Detach(a, sink)
			if m.session[a] == sink {
				m.detach(a)
			}
		case 2, 3, 4: // route a → b; op 4 is a burst, sized by the op byte's high bits
			n := 1
			if op == 4 {
				n = int(data[i]>>3) * 4
			}
			for ; n > 0; n-- {
				ids++
				st := Stanza{From: a, To: b, ID: strconv.Itoa(ids)}
				sw.Route(a, b, st)
				m.route(a, b, st)
			}
		case 5: // a's current connection goes stale
			if sink := m.session[a]; sink != nil {
				sink.budget, m.budget[sink] = 0, 0
			}
		case 6:
			if a != b {
				sw.Associate(a, b)
				if m.session[a] != nil && m.session[b] != nil {
					m.presence(m.session[b], a, true)
					m.presence(m.session[a], b, true)
				}
				m.roster[[2]string{a, b}] = true
			}
		}
		for _, u := range modelUsers {
			// Only a user's newest session can still be written to.
			if hs := handles[u]; len(hs) > 0 {
				checkRecord(t, i/3, hs[len(hs)-1], m, false)
			}
			sw.mu.Lock()
			got, sess := sw.queues[u], sw.sessions[u]
			sw.mu.Unlock()
			if !reflect.DeepEqual(stanzaIDs(got), stanzaIDs(m.queue[u])) {
				t.Fatalf("op %d: %s queue %v, model %v", i/3, u, stanzaIDs(got), stanzaIDs(m.queue[u]))
			}
			if sess != nil && len(got) > 0 {
				t.Fatalf("op %d: %d stanzas stay queued while %s holds a session", i/3, len(got), u)
			}
			if (sess != nil) != (m.session[u] != nil) {
				t.Fatalf("op %d: %s attached = %v, model %v", i/3, u, sess != nil, m.session[u] != nil)
			}
		}
	}

	// Presence fanned out to the sessions in the model's order.
	if !reflect.DeepEqual(log, m.log) {
		t.Fatalf("presence went out as %v, model %v", log, m.log)
	}
	// Exactly once, in routing order per (sender, recipient): each allowed
	// stanza reached a session of its recipient once, unless it was evicted
	// or is still queued, and a sender's stanzas reach each recipient, across
	// its sessions in attach order, in the order they were routed.
	seen := map[string]int{}
	last := map[[2]string]int{}
	for _, sink := range sinks {
		checkRecord(t, len(data)/3, sink, m, true)
		for _, id := range sink.got {
			seen[id]++
			n, _ := strconv.Atoi(id)
			pair := m.routed[id]
			if n <= last[pair] {
				t.Fatalf("stanza %d overtook %d from %s to %s", n, last[pair], pair[0], pair[1])
			}
			last[pair] = n
		}
	}
	for u, hs := range handles {
		for _, sink := range hs {
			for _, id := range sink.got {
				if m.routed[id][1] != u {
					t.Fatalf("stanza %s for %s delivered to %s", id, m.routed[id][1], u)
				}
			}
		}
	}
	for _, q := range m.queue {
		for _, st := range q {
			seen[st.ID]++
		}
	}
	for id := range m.routed {
		want := 1
		if m.evicted[id] {
			want = 0
		}
		if seen[id] != want {
			t.Fatalf("stanza %s delivered or queued %d times, want %d", id, seen[id], want)
		}
	}
}

// checkRecord compares what sink was sent with the model: the counts after
// every op, everything at the end.
func checkRecord(t *testing.T, op int, sink *fakeSink, m *model, full bool) {
	t.Helper()
	got, want := sink.record, *m.want[sink]
	if len(got.got) != len(want.got) || len(got.presence) != len(want.presence) || len(got.bounced) != len(want.bounced) ||
		full && !reflect.DeepEqual(got, want) {
		t.Fatalf("op %d: session wrote %+v, model %+v", op, got, want)
	}
}

func stanzaIDs(q []Stanza) []string {
	out := []string{}
	for _, st := range q {
		out = append(out, st.ID)
	}
	return out
}

// TestSwitchboardModel runs seeded op streams through runSwitchboardModel.
func TestSwitchboardModel(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		data := make([]byte, 3*400)
		rand.New(rand.NewSource(seed)).Read(data)
		runSwitchboardModel(t, data)
	}
}

// FuzzSwitchboard is the model check with op streams from the fuzzer.
func FuzzSwitchboard(f *testing.F) {
	f.Add([]byte{6, 0, 1, 0, 0, 255, 2, 1, 0, 0, 1, 255})          // associate, attach, route, attach: live
	f.Add([]byte{6, 0, 1, 2, 0, 1, 2, 0, 1, 0, 1, 2, 5, 1, 0})     // queue two, attach with budget 2
	f.Add([]byte{6, 0, 1, 0, 1, 255, 5, 1, 0, 2, 0, 1, 0, 1, 255}) // stale sink, then a fresh login
	f.Add([]byte{0, 0, 255, 2, 0, 1, 0, 0, 255, 1, 0, 0})          // bounce, displaced login, detach of the displaced one
	f.Fuzz(runSwitchboardModel)
}

type discardSink struct{}

func (discardSink) Deliver(Stanza) error  { return nil }
func (discardSink) Presence(string, bool) {}
func (discardSink) Bounce(Stanza, string) {}

// Routing to a live session takes the lock once and allocates nothing, with
// metrics on.
func TestRouteToLiveSessionAllocatesNothing(t *testing.T) {
	sw := NewSwitchboard(vclock.Real{}, obs.NewRegistry())
	sw.Associate("a", "b")
	sw.Attach("b", discardSink{})
	m := Stanza{To: "b@pogo", From: "a@pogo", ID: "1", Body: []byte("payload")}
	if n := testing.AllocsPerRun(1000, func() { sw.Route("a", "b", m) }); n != 0 {
		t.Fatalf("Route to a live session: %v allocs, want 0", n)
	}
}

// lockedLog is a goroutine-safe sink appending to one shared delivery log.
type lockedLog struct {
	mu  *sync.Mutex
	log *[]string
}

func (l lockedLog) Deliver(m Stanza) error {
	l.mu.Lock()
	*l.log = append(*l.log, m.ID)
	l.mu.Unlock()
	return nil
}
func (lockedLog) Presence(string, bool) {}
func (lockedLog) Bounce(Stanza, string) {}

// Senders route while the recipient logs in and out as fast as it can: once
// it is attached for good and the senders are done, nothing is left queued,
// and every stanza arrived exactly once, in each sender's order, unless it
// was counted as evicted.
func TestAttachRacingRoutesStrandsNothing(t *testing.T) {
	const senders, each = 4, 200
	reg := obs.NewRegistry()
	sw := NewSwitchboard(vclock.Real{}, reg)
	var mu sync.Mutex
	var log []string
	sink := lockedLog{&mu, &log}
	for i := 0; i < senders; i++ {
		sw.Associate("s"+strconv.Itoa(i), "d")
	}
	stop := make(chan struct{})
	churned := make(chan struct{})
	go func() {
		defer close(churned)
		for {
			select {
			case <-stop:
				return
			default:
			}
			sw.Attach("d", sink)
			sw.Detach("d", sink)
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func(from string) {
			defer wg.Done()
			for n := 0; n < each; n++ {
				sw.Route(from, "d", Stanza{ID: from + ":" + strconv.Itoa(n)})
			}
		}("s" + strconv.Itoa(i))
	}
	wg.Wait()
	close(stop)
	<-churned
	sw.Attach("d", sink)
	if n := queued(sw, "d"); n != 0 {
		t.Fatalf("%d stanzas stranded in the queue of an attached user", n)
	}

	mu.Lock()
	defer mu.Unlock()
	next := map[string]int{}
	for _, id := range log {
		from, nstr, _ := strings.Cut(id, ":")
		n, _ := strconv.Atoi(nstr)
		if n < next[from] {
			t.Fatalf("%s arrived after %s:%d", id, from, next[from]-1)
		}
		next[from] = n + 1
	}
	if evicted := reg.CounterValue("xmpp_server_queue_drops_total"); int64(len(log))+evicted != senders*each {
		t.Fatalf("delivered %d + evicted %d, want %d", len(log), evicted, senders*each)
	}
}
