package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"pogo/internal/msg"
)

// Delivery is the exactly-once audit of one chaos or fleet run: every
// (receiver, sender, channel) stream must carry sequences 0..n-1 once each,
// in order, with no outbox entry left pending at the end. Log is the full
// delivery log (one line per application-level delivery); LogSHA256
// fingerprints it so two runs can be compared for bit-for-bit
// reproducibility without shipping the log itself. ChaosResult and
// FleetResult embed it, so its JSON keys sit at their top level.
type Delivery struct {
	Expected   int      `json:"expected_deliveries"`
	Delivered  int      `json:"delivered"`
	Lost       int      `json:"lost"`
	Duplicated int      `json:"duplicated"`
	OutOfOrder int      `json:"out_of_order"`
	Undrained  int      `json:"undrained"`
	LogSHA256  string   `json:"log_sha256"`
	Log        []string `json:"-"`
}

// Err is the run's verdict: nil when nothing was lost, duplicated, reordered
// or left undrained, else an error naming each nonzero count.
func (d Delivery) Err() error {
	var bad []string
	for _, f := range []struct {
		name string
		n    int
	}{{"lost", d.Lost}, {"dup", d.Duplicated}, {"ooo", d.OutOfOrder}, {"undrained", d.Undrained}} {
		if f.n != 0 {
			bad = append(bad, fmt.Sprintf("%s=%d", f.name, f.n))
		}
	}
	if bad == nil {
		return nil
	}
	return fmt.Errorf("exactly-once delivery violated: %s", strings.Join(bad, " "))
}

// Both simulated worlds — the chaos world and the sharded fleet — record the
// same way: each application-level delivery is one 20-byte deliveryEntry
// (the fleet keeps them in chunked per-shard deliveryLogs), entity names and
// channels are indexes into the world's entityTable, and one deliveryAudit
// judges every entry. Lines are formatted only while hashing the log or when
// a caller keeps it.

// deliveryEntry is one application-level delivery in compact form. recv and
// send index the world's entityTable (-1: a sender the table does not know),
// ch is one of its channel codes.
type deliveryEntry struct {
	atMs int32 // delivery instant, ms since the world started (truncated)
	recv int32
	send int32
	n    int32 // payload sequence number, -1 if the payload was not ours
	ch   uint8
}

// Channel codes. The two scheduled channels come first in every table.
const (
	chanUpload = uint8(0)    // phone → its collector
	chanCmd    = uint8(1)    // collector → phone
	chanOther  = uint8(0xff) // a channel the table does not hold; printed "?"
)

// payloadSeq reads a scheduled payload's sequence number, or -1 if the
// payload is not one of ours.
func payloadSeq(payload msg.Value) int32 {
	if m, ok := payload.(msg.Raw); ok {
		if f, ok := msg.GetNumber(m, "n"); ok {
			return int32(f)
		}
	}
	return -1
}

// entityTable is a world's one naming table: entity index ↔ name, and
// channel code → name. The log, the auditor and the line formatter all read
// it; only a single-threaded world may intern channels into it.
type entityTable struct {
	names []string
	index map[string]int32
	chans []string
}

func newEntityTable(names []string) entityTable {
	t := entityTable{names: names, index: make(map[string]int32, len(names)), chans: []string{chanUpload: "upload", chanCmd: "cmd"}}
	for i, s := range names {
		t.index[s] = int32(i)
	}
	return t
}

// lookup returns name's entity index, or -1.
func (t *entityTable) lookup(name string) int32 {
	if i, ok := t.index[name]; ok {
		return i
	}
	return -1
}

// chanCode returns ch's code. A channel the table lacks is chanOther, or
// with intern it is added while codes last (intern writes the table).
func (t *entityTable) chanCode(ch string, intern bool) uint8 {
	if i := slices.Index(t.chans, ch); i >= 0 {
		return uint8(i)
	}
	if !intern || len(t.chans) == int(chanOther) {
		return chanOther
	}
	t.chans = append(t.chans, ch)
	return uint8(len(t.chans) - 1)
}

func (t *entityTable) chanName(c uint8) string {
	if int(c) < len(t.chans) {
		return t.chans[c]
	}
	return "?"
}

func (t *entityTable) appendName(dst []byte, i int32) []byte {
	if i >= 0 && int(i) < len(t.names) {
		return append(dst, t.names[i]...)
	}
	return append(dst, '?')
}

// appendLine formats one entry as a log line, "<recv> <- <send> <channel>
// <n>", prefixed with "t=<ms> " when timed.
func (t *entityTable) appendLine(dst []byte, e deliveryEntry, timed bool) []byte {
	if timed {
		dst = append(strconv.AppendInt(append(dst, "t="...), int64(e.atMs), 10), ' ')
	}
	dst = t.appendName(dst, e.recv)
	dst = append(dst, " <- "...)
	dst = t.appendName(dst, e.send)
	dst = append(dst, ' ')
	dst = append(dst, t.chanName(e.ch)...)
	dst = append(dst, ' ')
	return strconv.AppendInt(dst, int64(e.n), 10)
}

// seal formats the entries' lines in the order given, hashes them joined by
// '\n' through a streaming SHA-256 into d.LogSHA256, and keeps them in d.Log
// if asked.
func (t *entityTable) seal(d *Delivery, entries []deliveryEntry, timed, keep bool) {
	h := sha256.New()
	var buf []byte
	for i, e := range entries {
		if i > 0 {
			h.Write([]byte{'\n'})
		}
		buf = t.appendLine(buf[:0], e, timed)
		h.Write(buf)
		if keep {
			d.Log = append(d.Log, string(buf))
		}
	}
	d.LogSHA256 = hex.EncodeToString(h.Sum(nil))
}

// deliveryLog is one fleet shard's append-only chunked slice of entries, so
// growth never copies. Only the owning shard's worker appends; readers run
// at barriers or after the run.
type deliveryLog struct {
	chunks [][]deliveryEntry
	n      int
}

func (l *deliveryLog) add(e deliveryEntry) {
	k := len(l.chunks) - 1
	if k < 0 || len(l.chunks[k]) == cap(l.chunks[k]) {
		// Chunks grow from 64 entries to 16k (~320 KB), so tiny fleets
		// don't pay 320 KB per shard.
		l.chunks = append(l.chunks, make([]deliveryEntry, 0, 64<<min(len(l.chunks), 8)))
		k++
	}
	l.chunks[k] = append(l.chunks[k], e)
	l.n++
}

// each visits the entries in append order.
func (l *deliveryLog) each(fn func(deliveryEntry)) {
	for _, c := range l.chunks {
		for _, e := range c {
			fn(e)
		}
	}
}

// verdict is the auditor's judgement of one delivery.
type verdict uint8

const (
	unaudited  verdict = iota // not on a scheduled stream, or n out of range
	inOrder                   // first arrival of n, above every n before it
	duplicate                 // n arrived before on this stream
	outOfOrder                // first arrival of n, after a higher n
)

// deliveryAudit is the one exactly-once checker. A scheduled stream is phone
// p's uploads to its collector or its collector's commands to p, carrying n =
// 0..want-1; a delivery is audited only if it lies on one and its n is in
// range. Each stream is a bitmap of the n seen plus the highest n so far, so
// add judges a delivery the moment it arrives, and the running counts are the
// run's figures: lost counts every scheduled n not yet seen, duplicated every
// repeat, out of order every stream that ever went backwards (once per
// stream). Feed it each stream's deliveries in arrival order.
type deliveryAudit struct {
	phoneBase     int32    // entity index of phone 0; the phones are contiguous
	collBase      int32    // entity index of collector 0
	collOf        []int32  // each phone's collector, counted from collBase
	want          [2]int32 // messages per stream, by channel code
	words         [2]int
	seen          [2][]uint64      // bit (p, n) per channel code
	streams       [2][]auditStream // per phone, by channel code
	set, dup, ooo int
}

type auditStream struct {
	next int32 // one past the highest n so far, 0 before any
	late bool  // counted out of order already
}

func newDeliveryAudit(phoneBase, collBase int32, collOf []int32, upload, cmd int) *deliveryAudit {
	a := &deliveryAudit{phoneBase: phoneBase, collBase: collBase, collOf: collOf,
		want: [2]int32{int32(upload), int32(cmd)}}
	for c := range a.want {
		a.words[c] = (int(a.want[c]) + 63) / 64
		a.seen[c] = make([]uint64, len(collOf)*a.words[c])
		a.streams[c] = make([]auditStream, len(collOf))
	}
	return a
}

// add audits one delivery and returns its verdict.
func (a *deliveryAudit) add(e deliveryEntry) verdict {
	c, phone, coll := e.ch, e.send, e.recv
	if c > chanCmd {
		return unaudited
	}
	if c == chanCmd {
		phone, coll = e.recv, e.send
	}
	p := int(phone - a.phoneBase)
	if p < 0 || p >= len(a.collOf) || coll != a.collBase+a.collOf[p] ||
		e.n < 0 || e.n >= a.want[c] {
		return unaudited
	}
	v := inOrder
	w := &a.seen[c][p*a.words[c]+int(e.n)/64]
	if b := uint64(1) << (uint(e.n) % 64); *w&b != 0 {
		a.dup++
		v = duplicate
	} else {
		*w |= b
		a.set++
	}
	if s := &a.streams[c][p]; e.n+1 < s.next {
		if !s.late {
			s.late = true
			a.ooo++
		}
		if v == inOrder {
			v = outOfOrder
		}
	} else {
		s.next = e.n + 1
	}
	return v
}

// counts returns the lost, duplicated and out-of-order figures so far.
func (a *deliveryAudit) counts() (lost, dup, ooo int) {
	return len(a.collOf)*int(a.want[0]+a.want[1]) - a.set, a.dup, a.ooo
}
