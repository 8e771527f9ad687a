package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pogo/internal/msg"
	"pogo/internal/obs"
	"pogo/internal/pubsub"
	"pogo/internal/transport"
)

// The traced pass measures every layer from outside: the harness stamps its
// own publish call and the log append, and wraps each node's messenger in a
// timing decorator that stamps the transport → XMPP boundary on the phone
// and the XMPP → transport boundary on the collector. Consecutive stamps
// bound one layer each, so a message's six segments sum to its latency.
//
// A message is followed by the trace ID the broker assigns at publish and
// the transport carries beside the envelope (transport.Outgoing.Traces): a
// harness subscription on the wire channel learns each publication's ID and
// sequence number, and the phone decorator sees the IDs of every envelope it
// sends. On the collector side an envelope is recognised by the checksum
// that opens every transport frame, so a stream reset or a lost envelope
// costs its own spans and no others. A message sent twice keeps the stamps
// of the first transmission that arrived.

// segmentNames are the per-layer metrics of the traced pass, in path order.
var segmentNames = [numSegments]string{
	"core.publish_us",      // Publish call: broker fan-out + proxy + EnqueueTraced + Outbox.Add
	"sched.flush_wait_us",  // Publish return → SendBatch entry: scheduler hop (+ phone script), flush scan, envelope encode
	"xmpp.send_us",         // SendBatch: stanza framing + conn.Write
	"xmpp.route_us",        // SendBatch exit → collector OnReceive entry: server route, sockets, client read loop
	"transport.receive_us", // OnReceive callback: CRC, decode, dedup/FIFO, broker publish, ack
	"script.deliver_us",    // callback exit → log append: scheduler hop, handler, logTo
}

const numSegments = 6

// span holds one message's stamps, nanoseconds since the tracer's epoch.
type span struct {
	pub0, pub1   int64 // harness: Publish call entry / return (pub0 is the due instant on an open loop)
	send0, send1 int64 // phone decorator: SendBatch (or SendTraced) entry / exit
	recv0, recv1 int64 // collector decorator: OnReceive callback entry / exit
	logged       int64 // harness: log append
}

// segments splits the span at its stamps.
func (s *span) segments() [numSegments]int64 {
	return [numSegments]int64{
		s.pub1 - s.pub0, s.send0 - s.pub1, s.send1 - s.send0,
		s.recv0 - s.send1, s.recv1 - s.recv0, s.logged - s.recv1,
	}
}

func (s *span) complete() bool { return s.pub1 != 0 && s.send1 != 0 && s.recv1 != 0 && s.logged != 0 }

// envelope is one payload a phone handed to its connection and the trace
// IDs of the data messages in it. The transport stamps live here and are
// copied into the spans when the pass is over: an envelope can be on the
// wire before the harness has learnt its messages' IDs.
type envelope struct {
	traces       []obs.TraceID
	send0, send1 int64
	recv0, recv1 int64
}

// frameKey is how both decorators recognise a payload: the transport frames
// every envelope as eight hex digits of CRC32, a colon, and the body.
type frameKey [8]byte

func keyOf(payload []byte) (k frameKey) {
	copy(k[:], payload)
	return k
}

// phoneTrace is one phone's spans and the envelopes it sent.
type phoneTrace struct {
	mu        sync.Mutex
	spans     []span              // indexed by sequence number
	seqOf     map[obs.TraceID]int // wire publication's trace ID → sequence number
	envelopes []envelope          // in send order
	awaited   map[frameKey][]int  // envelopes (by index, oldest first) the collector has not received yet
}

// tracer records spans in memory for one traced pass. A nil *tracer is the
// untraced configuration: its wrap methods return the messenger unwrapped.
type tracer struct {
	epoch  time.Time
	armed  atomic.Bool // stamps are recorded only while armed (set-up traffic is not traced)
	phones []*phoneTrace
	byName map[string]*phoneTrace
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), byName: make(map[string]*phoneTrace)}
	for i := 0; i < numPhones; i++ {
		pt := &phoneTrace{seqOf: make(map[obs.TraceID]int), awaited: make(map[frameKey][]int)}
		t.phones = append(t.phones, pt)
		t.byName[phoneID(i)] = pt
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) wrapPhone(m *transport.XMPPMessenger, phone int) transport.Messenger {
	if t == nil {
		return m
	}
	return &timedMessenger{XMPPMessenger: m, tr: t, phone: t.phones[phone]}
}

func (t *tracer) wrapCollector(m *transport.XMPPMessenger) transport.Messenger {
	if t == nil {
		return m
	}
	return &timedMessenger{XMPPMessenger: m, tr: t}
}

// tap subscribes to the wire channel on every phone broker to learn which
// trace ID carries which sequence number.
func (t *tracer) tap(w *world, wireSeqKey string) {
	for i, b := range w.brokers {
		pt := t.phones[i]
		b.Subscribe(w.wl.wireChannel, nil, func(ev pubsub.Event) {
			seq, ok := msg.GetNumber(ev.Message, wireSeqKey)
			if !ok || ev.Origin != "" {
				return
			}
			pt.mu.Lock()
			pt.seqOf[ev.Trace] = int(seq)
			pt.mu.Unlock()
		})
	}
}

// span returns the span of sequence number seq, growing the table to hold
// it. Caller holds pt.mu.
func (pt *phoneTrace) span(seq int) *span {
	for len(pt.spans) <= seq {
		pt.spans = append(pt.spans, span{})
	}
	return &pt.spans[seq]
}

// published stamps a message's Publish call.
func (pt *phoneTrace) published(seq int, pub0, pub1 int64) {
	pt.mu.Lock()
	s := pt.span(seq)
	s.pub0, s.pub1 = pub0, pub1
	pt.mu.Unlock()
}

// logged stamps a message's log append.
func (pt *phoneTrace) logged(seq int, at int64) {
	pt.mu.Lock()
	pt.span(seq).logged = at
	pt.mu.Unlock()
}

// timedMessenger is the timing decorator. It embeds the concrete XMPP
// messenger so every optional interface the endpoint probes for
// (transport.BatchSender, transport.TraceSender) stays implemented — a
// decorator over the bare Messenger interface would silently push the
// endpoint onto its unbatched path.
type timedMessenger struct {
	*transport.XMPPMessenger
	tr    *tracer
	phone *phoneTrace // nil on the collector
}

var (
	_ transport.Messenger   = (*timedMessenger)(nil)
	_ transport.BatchSender = (*timedMessenger)(nil)
	_ transport.TraceSender = (*timedMessenger)(nil)
)

// sending opens an envelope record for a payload about to be written; the
// returned function closes it. The record opens at entry because the
// collector can receive the envelope before the phone's write call returns.
// The trace slice is copied: the endpoint reuses it after the call.
func (m *timedMessenger) sending(out ...transport.Outgoing) func() {
	pt := m.phone
	if pt == nil || !m.tr.armed.Load() {
		return func() {}
	}
	t0 := m.tr.now()
	pt.mu.Lock()
	first := len(pt.envelopes)
	for i, o := range out {
		pt.envelopes = append(pt.envelopes, envelope{traces: append([]obs.TraceID(nil), o.Traces...), send0: t0})
		k := keyOf(o.Payload)
		pt.awaited[k] = append(pt.awaited[k], first+i)
	}
	pt.mu.Unlock()
	return func() {
		t1 := m.tr.now()
		pt.mu.Lock()
		for i := first; i < first+len(out); i++ {
			pt.envelopes[i].send1 = t1
		}
		pt.mu.Unlock()
	}
}

func (m *timedMessenger) Send(to string, payload []byte) error {
	defer m.sending(transport.Outgoing{Payload: payload})()
	return m.XMPPMessenger.Send(to, payload)
}

func (m *timedMessenger) SendTraced(to string, payload []byte, traces []obs.TraceID) error {
	defer m.sending(transport.Outgoing{Payload: payload, Traces: traces})()
	return m.XMPPMessenger.SendTraced(to, payload, traces)
}

func (m *timedMessenger) SendBatch(batch []transport.Outgoing) (int, error) {
	defer m.sending(batch...)()
	return m.XMPPMessenger.SendBatch(batch)
}

// OnReceive times the endpoint's receive callback and attributes it to the
// envelope the sender framed with the same checksum.
func (m *timedMessenger) OnReceive(fn func(from string, payload []byte)) {
	m.XMPPMessenger.OnReceive(func(from string, payload []byte) {
		pt := m.tr.byName[from]
		if pt == nil || !m.tr.armed.Load() {
			fn(from, payload)
			return
		}
		k := keyOf(payload) // before fn: the endpoint owns the payload afterwards
		t0 := m.tr.now()
		fn(from, payload)
		t1 := m.tr.now()
		pt.mu.Lock()
		if idx := pt.awaited[k]; len(idx) > 0 {
			e := &pt.envelopes[idx[0]]
			e.recv0, e.recv1 = t0, t1
			if len(idx) == 1 {
				delete(pt.awaited, k)
			} else {
				pt.awaited[k] = idx[1:]
			}
		}
		pt.mu.Unlock()
	})
}

// resolve copies every envelope's transport stamps into the spans of the
// messages it carried; a message sent more than once keeps the first
// transmission that arrived. Call once, after the pass has drained.
func (t *tracer) resolve() {
	for _, pt := range t.phones {
		pt.mu.Lock()
		for _, e := range pt.envelopes {
			for _, id := range e.traces {
				seq, ok := pt.seqOf[id]
				if !ok {
					continue
				}
				if s := pt.span(seq); s.send1 == 0 && e.recv1 != 0 {
					s.send0, s.send1, s.recv0, s.recv1 = e.send0, e.send1, e.recv0, e.recv1
				}
			}
		}
		pt.mu.Unlock()
	}
}

// traceSummary is what the traced pass reports: where the median message
// spent its time, the median latency that adds up to, and how many spans
// were complete.
type traceSummary struct {
	segmentUS  [numSegments]float64
	latencyUS  float64
	spans      int
	incomplete int
}

// summarize looks at the complete spans whose log append fell inside
// [from, to). A segment's figure is its mean over the median messages —
// those whose latency lies between the 40th and 60th percentile — so the six
// figures add up to a median message's latency. Per-segment medians would
// not: each would pick a different message.
func (t *tracer) summarize(from, to int64) traceSummary {
	var sum traceSummary
	var spans []*span
	var lat []float64
	for _, pt := range t.phones {
		pt.mu.Lock()
		for i := range pt.spans {
			s := &pt.spans[i]
			if s.logged < from || s.logged >= to {
				continue
			}
			if !s.complete() {
				sum.incomplete++
				continue
			}
			spans = append(spans, s)
			lat = append(lat, float64(s.logged-s.pub0)/1e3)
		}
		pt.mu.Unlock()
	}
	sum.spans = len(spans)
	sort.Float64s(lat)
	sum.latencyUS = quantileSorted(lat, 0.5)
	lo, hi := quantileSorted(lat, 0.4), quantileSorted(lat, 0.6)
	n := 0
	for _, s := range spans {
		if l := float64(s.logged-s.pub0) / 1e3; l < lo || l > hi {
			continue
		}
		for j, d := range s.segments() {
			sum.segmentUS[j] += float64(d) / 1e3
		}
		n++
	}
	for j := range sum.segmentUS {
		sum.segmentUS[j] /= float64(max(n, 1))
	}
	return sum
}

// writeFile dumps every span as one row of microsecond stamps.
func (t *tracer) writeFile(outDir, workload string, sum traceSummary) (string, error) {
	path := filepath.Join(outDir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	fmt.Fprintf(w, "{\"workload\":%q,\"unit\":\"us\",\"median_latency_us\":%.3f,\"segments\":{", workload, sum.latencyUS)
	for j, name := range segmentNames {
		if j > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q:%.3f", name, sum.segmentUS[j])
	}
	w.WriteString("},\n\"columns\":[\"phone\",\"seq\",\"pub0\",\"pub1\",\"send0\",\"send1\",\"recv0\",\"recv1\",\"logged\"],\n\"spans\":[\n")
	var buf []byte
	first := true
	for p, pt := range t.phones {
		pt.mu.Lock()
		for seq := range pt.spans {
			s := &pt.spans[seq]
			buf = buf[:0]
			if !first {
				buf = append(buf, ",\n"...)
			}
			first = false
			buf = append(buf, '[')
			buf = strconv.AppendInt(buf, int64(p), 10)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(seq), 10)
			for _, v := range [...]int64{s.pub0, s.pub1, s.send0, s.send1, s.recv0, s.recv1, s.logged} {
				buf = append(buf, ',')
				buf = strconv.AppendFloat(buf, float64(v)/1e3, 'f', 1, 64)
			}
			buf = append(buf, ']')
			w.Write(buf)
		}
		pt.mu.Unlock()
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
