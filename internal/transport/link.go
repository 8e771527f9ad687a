package transport

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"pogo/internal/msg"
	"pogo/internal/obs"
	"pogo/internal/store"
)

// link is an endpoint's delivery core (DESIGN.md, "Delivery core"): the
// sender's and the receiver's half of the protocol as one state machine, with
// no clock, lock, timer, messenger or instrument. Its inputs are enqueue,
// expire and purge (the max-age policy), stage and encode (a flush), settle
// (the messenger's verdict on each staged envelope), unpack and receive (an
// inbound payload), reconnect and nextDeadline. A call that depends on time
// takes the instant it happens at, and the outputs land in recycled scratch:
// the link's own flushScratch, and the envScratch the caller lends it. The
// outbox stays inside: the live outbox is the one record of what is pending,
// and selection reads it, never a copy. The caller serializes the calls,
// except expire, encode and unpack: they touch only the outbox, which locks
// itself, and their scratch (encode the flush scratch, which only the flush
// in progress uses).
type link struct {
	local, boot string // this node's id and process lifetime, as envelopes carry them
	box         *store.Outbox
	maxAge      time.Duration
	retryAfter  time.Duration
	traceSeed   int64

	// Sender. What a flush sends is kept so that selecting it costs the
	// entries it picks, never the backlog: entries past cursor have not been
	// picked up yet (policy flushes advance it), refused ones were picked up
	// but the messenger would not take them (the next policy flush tries
	// again), and inflight ones wait in retryq for their retransmission
	// deadline.
	nextSeq  map[string]map[string]uint64 // dest → channel → next FIFO sequence
	pubOf    map[uint64]relayed           // outbox id → the relayed local publication; roots are derived
	dirty    map[string][]string          // dest → channels whose floor moved by expiry
	cursor   uint64
	refused  []uint64
	inflight map[uint64]*sendState
	retryq   deadlineQueue
	free     []*sendState // recycled inflight records
	fsc      flushScratch // the flusher's: one flush at a time uses it

	// Receiver: everything remembered about each sender, by the id the
	// messenger reports, never the one an envelope claims.
	peers map[string]*peerState

	stats Stats
}

// newLink returns the core of an endpoint named local over box. The
// per-channel sequence counters are recovered from the replayed outbox, so
// post-reboot enqueues continue the FIFO where the last boot left it. The
// bookkeeping maps are allocated lazily at their write sites: a fleet-scale
// experiment holds hundreds of thousands of endpoints whose phones never
// receive, never relay traces and never purge.
func newLink(box *store.Outbox, local string, cfg EndpointConfig) link {
	l := link{
		local:      local,
		boot:       cfg.BootID,
		box:        box,
		maxAge:     cfg.MaxAge,
		retryAfter: cfg.RetryAfter,
		traceSeed:  cfg.TraceSeed,
	}
	for _, entry := range box.Pending() {
		if entry.Seq >= l.nextSeq[entry.To][entry.Channel] {
			l.setSeq(entry.To, entry.Channel, entry.Seq+1)
		}
	}
	return l
}

// setSeq stores dest/channel's next FIFO sequence. The two-level map makes
// the hot-path read (l.nextSeq[to][channel], nil-safe) allocation-free where
// a concatenated "to\x00channel" key would cost a string per enqueue.
func (l *link) setSeq(to, channel string, next uint64) {
	if l.nextSeq == nil {
		l.nextSeq = make(map[string]map[string]uint64)
	}
	inner := l.nextSeq[to]
	if inner == nil {
		inner = make(map[string]uint64)
		l.nextSeq[to] = inner
	}
	inner[channel] = next
}

// relayed is a local publication an outbox entry relays: its number, which
// the envelope carries, and the trace the broker gave it,
// obs.PublicationTrace(local id, pub), which the receiver derives.
type relayed struct {
	pub   uint64
	trace obs.TraceID
}

// traceFor returns the trace outbox entry id travels under, and the number
// of the local publication it relays (0 for a root). A relayed publication's
// trace is the one it was enqueued with. Any other entry's is the root
// derived from (TraceSeed, local id, outbox id), carried whole: outbox IDs
// are persisted and monotonic, so a rebooted endpoint re-derives the same
// roots for replayed entries — the relayed ones among them, whose numbers
// died with the process — without storing anything.
func (l *link) traceFor(id uint64) (obs.TraceID, uint64) {
	if r, ok := l.pubOf[id]; ok {
		return r.trace, r.pub
	}
	return obs.NewTraceID(l.traceSeed, l.local, id), 0
}

// enqueue buffers body for peer to on channel at now and returns its outbox
// ID. The entry travels under pub's trace, or with pub.pub 0 under its root
// (traceFor).
func (l *link) enqueue(now time.Time, to, channel string, body []byte, pub relayed) (uint64, error) {
	seq := l.nextSeq[to][channel]
	id, err := l.box.Add(to, channel, seq, body, now)
	if err != nil {
		return 0, fmt.Errorf("transport: enqueue: %w", err)
	}
	l.setSeq(to, channel, seq+1)
	l.stats.MessagesEnqueued++
	if pub.pub != 0 {
		if l.pubOf == nil {
			l.pubOf = make(map[uint64]relayed)
		}
		l.pubOf[id] = pub
	}
	return id, nil
}

// expire applies the max-age policy to the outbox at now and returns the
// entries it dropped, in ID order, for purge.
func (l *link) expire(now time.Time) []store.Entry {
	dropped, _ := l.box.PurgeExpired(now, l.maxAge)
	return dropped
}

// purge forgets everything the core knew about entries expire dropped and
// returns their traces.
func (l *link) purge(dropped []store.Entry) []obs.TraceID {
	if len(dropped) == 0 {
		return nil
	}
	traces := make([]obs.TraceID, len(dropped))
	l.stats.MessagesExpired += len(dropped)
	for i, entry := range dropped {
		// The purge moved the channel's floor; mark it so the next
		// envelope tells the receiver not to wait for the gap.
		if l.dirty == nil {
			l.dirty = make(map[string][]string)
		}
		if chans := l.dirty[entry.To]; !slices.Contains(chans, entry.Channel) {
			l.dirty[entry.To] = append(chans, entry.Channel)
		}
		l.forget(entry.ID)
		traces[i], _ = l.traceFor(entry.ID)
		delete(l.pubOf, entry.ID)
	}
	return traces
}

// reconnect makes every inflight entry immediately due (a fresh session
// voids the old backoff timers: anything unacked may have died with the
// stale connection). Every deadline becomes the same instant, and a heap of
// equal keys is in order wherever its elements sit: retryq needs no fixing
// up.
func (l *link) reconnect() {
	for _, st := range l.inflight {
		st.due = time.Time{}
	}
}

// nextDeadline returns the earliest retransmission deadline, if anything is
// inflight and sent.
func (l *link) nextDeadline() (time.Time, bool) {
	if len(l.retryq) == 0 {
		return time.Time{}, false
	}
	return l.retryq[0].due, true
}

// track starts an inflight record for outbox entry id: picked up by the
// running flush, first transmission pending.
func (l *link) track(id uint64) {
	var st *sendState
	if n := len(l.free); n > 0 {
		st, l.free = l.free[n-1], l.free[:n-1]
	} else {
		st = new(sendState)
	}
	*st = sendState{id: id, pos: -1}
	if l.inflight == nil {
		l.inflight = make(map[uint64]*sendState)
	}
	l.inflight[id] = st
}

// forget drops id's inflight record, if any (acked, expired, or handed back
// by the messenger).
func (l *link) forget(id uint64) {
	st := l.inflight[id]
	if st == nil {
		return
	}
	if st.pos >= 0 {
		l.retryq.remove(st)
	}
	delete(l.inflight, id)
	l.free = append(l.free, st)
}

// retryWait returns the backoff after the attempts-th transmission:
// RetryAfter doubling per attempt, capped at 8 × RetryAfter.
func (l *link) retryWait(attempts int) time.Duration {
	return l.retryAfter << min(attempts-1, 3)
}

// destMeta locates one flush destination's state inside flushScratch's flat
// arrays: eligible entries (and their traces) in [elig0,elig1), floor pairs
// in [fl0,fl1), and its framed envelope ending at offset end of the wire
// buffer.
type destMeta struct {
	name         string
	elig0, elig1 int
	fl0, fl1     int
	end          int
}

// flushScratch is a flush's working set and its outputs, recycled from
// flush to flush, so steady-state flushing allocates nothing: no per-flush
// maps, no per-destination slices.
type flushScratch struct {
	elig     []store.Entry  // the entries this flush sends, grouped per dest
	traces   []obs.TraceID  // parallel to elig
	attempts []int          // parallel to elig: transmissions, this one included once settled
	items    []envelopeItem // parallel to elig: each entry as its envelope carries it
	floorCh  []string       // floor channel/seq pairs, grouped per dest
	floorSeq []uint64
	dests    []destMeta // destinations ascending
	out      []Outgoing // the staged envelopes, parallel to dests
	wire     []byte     // their framed bytes, end to end
	tab      chanTable  // the envelope being encoded's channel table
}

// sortFloorPairs orders a destination's floor entries by channel in place —
// the deterministic-bytes contract of the envelope encoder — without the
// allocations of a sort.Interface shim. Channel lists are tiny.
func sortFloorPairs(ch []string, seq []uint64) {
	for i := 1; i < len(ch); i++ {
		for j := i; j > 0 && ch[j] < ch[j-1]; j-- {
			ch[j], ch[j-1] = ch[j-1], ch[j]
			seq[j], seq[j-1] = seq[j-1], seq[j]
		}
	}
}

// stage selects what a flush at now sends into l.fsc, grouped per
// destination in destination order, for encode to frame. A policy flush sends
// whatever the messenger refused last time and everything enqueued since
// the cursor; every flush sends the inflight entries whose backoff has run
// out (retryOnly is the retransmission timer, which never makes a first
// transmission); and a destination whose only business is a purge-moved
// floor gets a floor-only envelope. Every picked entry has its inflight
// record before stage returns. The caller hands each envelope to the
// messenger and books the verdict with settle.
func (l *link) stage(now time.Time, retryOnly bool) {
	sc := &l.fsc
	sc.floorCh = sc.floorCh[:0]
	sc.floorSeq = sc.floorSeq[:0]
	sc.dests = sc.dests[:0]
	l.selectDue(sc, now, retryOnly)
	for i := 0; i < len(sc.elig); {
		dm := destMeta{name: sc.elig[i].To, elig0: i}
		for i < len(sc.elig) && sc.elig[i].To == dm.name {
			i++
		}
		dm.elig1 = i
		dm.fl0, dm.fl1 = l.appendFloors(sc, dm.name)
		sc.dests = append(sc.dests, dm)
	}
	for dest := range l.dirty {
		if slices.ContainsFunc(sc.dests, func(dm destMeta) bool { return dm.name == dest }) {
			continue
		}
		dm := destMeta{name: dest, elig0: len(sc.elig), elig1: len(sc.elig)}
		dm.fl0, dm.fl1 = l.appendFloors(sc, dest)
		sc.dests = append(sc.dests, dm)
	}
	if !retryOnly {
		l.stats.Flushes++
	}
	// Deterministic send order: destinations ascending.
	slices.SortFunc(sc.dests, func(a, b destMeta) int { return strings.Compare(a.name, b.name) })
}

// encode frames one envelope per destination stage left in l.fsc, and
// returns them (the payloads are pieces of one buffer, reused by the next
// flush).
func (l *link) encode() []Outgoing {
	sc := &l.fsc
	buf := sc.wire[:0]
	sc.out = sc.out[:0]
	for i := range sc.dests {
		dm := &sc.dests[i]
		start := len(buf)
		buf = appendEnvelope(append(buf, frameHeader[:]...), &sc.tab, l.local, l.boot, sc.items[dm.elig0:dm.elig1], nil,
			sc.floorCh[dm.fl0:dm.fl1], sc.floorSeq[dm.fl0:dm.fl1])
		frameInto(buf[start:])
		dm.end = len(buf)
		sc.out = append(sc.out, Outgoing{To: dm.name, Traces: sc.traces[dm.elig0:dm.elig1]})
	}
	// The buffer may have moved while it grew: cut the payloads only now.
	start := 0
	for i := range sc.out {
		end := sc.dests[i].end
		sc.out[i].Payload = buf[start:end:end]
		start = end
	}
	sc.wire = buf
	return sc.out
}

// selectDue gathers the entries a flush sends into sc.elig, ordered by
// (destination, ID), with their traces, prior attempt counts and envelope
// items alongside.
// Selection reads the live outbox: an ack cannot slip between "what is
// pending" and "what was already sent", so a sent entry is never mistaken
// for a new one.
func (l *link) selectDue(sc *flushScratch, now time.Time, retryOnly bool) {
	elig := sc.elig[:0]
	if !retryOnly {
		for _, id := range l.refused {
			if entry, ok := l.box.Get(id); ok {
				elig = append(elig, entry)
			}
		}
		l.refused = l.refused[:0]
		elig = l.box.AppendAfter(elig, l.cursor)
		if n := len(elig); n > 0 && elig[n-1].ID > l.cursor {
			l.cursor = elig[n-1].ID
		}
		for i := range elig {
			l.track(elig[i].ID)
		}
	}
	for st := l.retryq.popDue(now); st != nil; st = l.retryq.popDue(now) {
		if entry, ok := l.box.Get(st.id); ok {
			elig = append(elig, entry)
		} else {
			l.forget(st.id) // acked a moment ago; receive is about to say so
		}
	}
	// One destination's entries in outbox-ID (FIFO) order, destinations
	// ascending: the envelope contents and the send order.
	slices.SortFunc(elig, func(a, b store.Entry) int {
		if c := strings.Compare(a.To, b.To); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	sc.elig = elig
	sc.traces, sc.attempts, sc.items = sc.traces[:0], sc.attempts[:0], sc.items[:0]
	for i := range elig {
		e := &elig[i]
		trace, pub := l.traceFor(e.ID)
		sc.traces = append(sc.traces, trace)
		sc.attempts = append(sc.attempts, l.inflight[e.ID].attempts)
		it := envelopeItem{ID: e.ID, Seq: e.Seq, Channel: e.Channel, Pub: pub, Body: e.Payload}
		if pub == 0 {
			it.Trace = uint64(trace)
		}
		sc.items = append(sc.items, it)
	}
}

// appendFloors appends dest's floor pairs, sorted by channel, to the
// scratch: the lowest live sequence of every channel with entries buffered
// (all of them, not just the ones this flush sends), and for channels the
// purge drained entirely, the sequence the next enqueue would get.
func (l *link) appendFloors(sc *flushScratch, dest string) (fl0, fl1 int) {
	fl0 = len(sc.floorCh)
	sc.floorCh, sc.floorSeq = l.box.AppendFloors(dest, sc.floorCh, sc.floorSeq)
	for _, ch := range l.dirty[dest] {
		if !slices.Contains(sc.floorCh[fl0:], ch) {
			sc.floorCh = append(sc.floorCh, ch)
			sc.floorSeq = append(sc.floorSeq, l.nextSeq[dest][ch])
		}
	}
	fl1 = len(sc.floorCh)
	sortFloorPairs(sc.floorCh[fl0:fl1], sc.floorSeq[fl0:fl1])
	return fl0, fl1
}

// settle books the messenger's verdict on staged envelope i. An
// accepted envelope's entries become inflight with their next deadline (a
// missing record means the ack overtook this bookkeeping: the entry is done,
// and nothing must bring it back), and its floors are no longer owed. A
// refused envelope's entries on their first transmission go back to being
// unsent — the next policy flush picks them up, the retry timer never does —
// and retransmissions return to the deadline queue with the deadline they
// already had.
func (l *link) settle(now time.Time, i int, accepted bool) {
	sc := &l.fsc
	dm := &sc.dests[i]
	if !accepted {
		for k := dm.elig0; k < dm.elig1; k++ {
			id := sc.elig[k].ID
			st := l.inflight[id]
			switch {
			case st == nil: // acked or expired meanwhile
			case st.attempts == 0:
				l.forget(id)
				l.refused = append(l.refused, id)
			default:
				l.retryq.push(st)
			}
		}
		return
	}
	for k := dm.elig0; k < dm.elig1; k++ {
		if sc.attempts[k] > 0 {
			l.stats.Retries++
		}
		sc.attempts[k]++
		if st := l.inflight[sc.elig[k].ID]; st != nil {
			st.attempts = sc.attempts[k]
			st.due = now.Add(l.retryWait(st.attempts))
			l.retryq.push(st)
		}
	}
	delete(l.dirty, dm.name)
	l.stats.MessagesSent += dm.elig1 - dm.elig0
	l.stats.BytesSent += int64(len(sc.out[i].Payload))
}

// chanOrder is the receiver's FIFO state for one (sender, channel) pair:
// out-of-order arrivals wait in hold until the gap before them fills (or the
// sender's floor reveals the gap will never fill).
type chanOrder struct {
	next  uint64 // lowest sequence not yet delivered
	floor uint64 // sender's advertised floor: nothing below is still live
	hold  map[uint64]envelopeItem
}

// drainInto appends the items deliverable in FIFO order to out, advancing
// past floor-certified gaps. Held items below the floor (acked on arrival,
// then purged at the sender while waiting for ordering) are still delivered
// — skipping them would turn a reorder into a loss. The out slice is
// caller-recycled scratch, so steady-state delivery allocates nothing here.
func (c *chanOrder) drainInto(out []envelopeItem) []envelopeItem {
	for {
		if it, ok := c.hold[c.next]; ok {
			delete(c.hold, c.next)
			c.next++
			out = append(out, it)
			continue
		}
		if c.next >= c.floor {
			return out
		}
		skip := c.floor
		for s := range c.hold {
			if s >= c.next && s < skip {
				skip = s
			}
		}
		c.next = skip
	}
}

// peerState is everything the receiver remembers about one sender.
type peerState struct {
	boot  string
	chans map[string]*chanOrder
}

// channel returns the FIFO state of channel ch, creating it on first use.
func (ps *peerState) channel(ch string) *chanOrder {
	c := ps.chans[ch]
	if c == nil {
		c = &chanOrder{hold: make(map[uint64]envelopeItem)}
		ps.chans[ch] = c
	}
	return c
}

// unpack is an inbound payload's first step: it verifies the frame, decodes
// the envelope into sc, and acks the outbox — every ID in it but those of
// entries addressed to a peer other than from — leaving the IDs it took in
// sc.env.Ack. Everything is keyed by from, the sender the messenger
// authenticated: an envelope that names another is refused like a corrupt
// one.
func (l *link) unpack(from string, payload []byte, sc *envScratch) {
	body, err := unframe(payload)
	if err == nil {
		sc.env, err = decodeEnvelope(body, sc)
	}
	sc.bad = err != nil || sc.env.From != "" && sc.env.From != from
	if sc.bad || len(sc.env.Ack) == 0 {
		return
	}
	sc.env.Ack, _ = l.box.AckTo(from, sc.env.Ack) // filtered in place: decode scratch
}

// receive applies what unpack left in sc: acks settle their inflight
// records, floors and fresh data items advance the sender's channels, and sc
// gets the outputs — sc.deliver (in order, sc.msgs alongside: the validated
// message, zero for a body no encoder wrote, which is dropped like a corrupt
// frame) and sc.wire (the framed ack envelope, empty when nothing is acked);
// Stats counts the rest.
func (l *link) receive(from string, sc *envScratch) {
	sc.deliver, sc.msgs, sc.wire = sc.deliver[:0], sc.msgs[:0], sc.wire[:0]
	if sc.bad {
		// Corrupted in flight (the sender will retransmit) or forged: drop.
		l.stats.CorruptDropped++
		return
	}
	env := &sc.env
	for _, id := range env.Ack {
		l.forget(id)
		delete(l.pubOf, id)
	}
	l.stats.MessagesAcked += len(env.Ack)
	if len(env.Batch) == 0 && len(env.FloorCh) == 0 {
		return
	}

	ps := l.peers[from]
	if ps == nil || (len(env.Boot) > 0 && ps.boot != string(env.Boot)) {
		// First contact, or the peer rebooted: its IDs and sequences may have
		// restarted, so any previous state for it is stale. The envelope's
		// floors re-anchor the FIFO cursors.
		ps = &peerState{boot: string(env.Boot), chans: make(map[string]*chanOrder)}
		if l.peers == nil {
			l.peers = make(map[string]*peerState)
		}
		l.peers[from] = ps
	}
	// touched collects the channels whose state moved, with linear dedup —
	// an envelope rarely spans more than a few channels, and the recycled
	// slice keeps the hot path allocation-free.
	touched := sc.touched[:0]
	for i, ch := range env.FloorCh {
		if c := ps.channel(ch); env.FloorSeq[i] > c.floor {
			c.floor = env.FloorSeq[i]
		}
		if !slices.Contains(touched, ch) {
			touched = append(touched, ch)
		}
	}
	ackIDs := sc.ackIDs[:0]
	for _, item := range env.Batch {
		ackIDs = append(ackIDs, item.ID)
		c := ps.channel(item.Channel)
		_, held := c.hold[item.Seq]
		// The cursor is the dedup state: an item that ever arrived is either
		// still held or was delivered, which moved next past its Seq.
		if held || item.Seq < c.next {
			l.stats.Duplicates++
			continue
		}
		c.hold[item.Seq] = item // the hold map copies item; scratch-safe
		if !slices.Contains(touched, item.Channel) {
			touched = append(touched, item.Channel)
		}
	}
	sc.ackIDs = ackIDs
	slices.Sort(touched)
	sc.touched = touched
	for _, ch := range touched {
		sc.deliver = ps.chans[ch].drainInto(sc.deliver)
	}
	l.stats.MessagesReceived += len(sc.deliver)
	// The application reads the receive buffer itself, with no decode and no
	// copy, once the body proves to be what an encoder writes. One that is
	// not was acked and is not retransmitted; its channel's order moves past
	// it. A relayed publication's trace is derived here, once per delivered
	// item, from the sender the messenger authenticated.
	for i := range sc.deliver {
		item := &sc.deliver[i]
		if item.Pub != 0 {
			item.Trace = uint64(obs.PublicationTrace(from, item.Pub))
		}
		r, err := msg.ParseRaw(item.Body)
		if err != nil {
			l.stats.CorruptDropped++
		}
		sc.msgs = append(sc.msgs, r)
	}
	// Ack at once; acks are fire-and-forget (a lost ack means a
	// retransmission, which dedup absorbs). Held items are acked too — the
	// sender's job is done once they arrive; ordering is receiver-local.
	if len(ackIDs) > 0 {
		sc.wire = frameInto(appendEnvelope(append(sc.wire, frameHeader[:]...), &sc.tab, l.local, l.boot, nil, ackIDs, nil, nil))
	}
}
