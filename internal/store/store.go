// Package store implements Pogo's durable message outbox (§4.6 of the
// paper).
//
// Messages destined for a remote node are not sent immediately: they are
// buffered so transmissions can be batched into another application's 3G
// tail, and they must survive a reboot or battery death. The paper uses an
// embedded SQL database; this implementation uses an append-only JSON-lines
// log with replay recovery and periodic compaction, which provides the same
// durability semantics with only the standard library.
//
// In memory the live set is one slice in ID order: IDs are assigned
// monotonically, so Add appends, an ack marks its slot dead, dead slots are
// dropped from the head as they surface and squeezed out when they outnumber
// the live ones. Reading the backlog is an ordered walk, reading "everything
// after ID x" (the transport's send cursor) starts at a binary search, and a
// per-(destination, channel) record of the lowest live sequence answers the
// envelope floors without looking at the entries at all — so nothing the
// transport does per flush costs more than the entries it touches.
//
// The outbox also implements the message-ageing policy that bit users 2a
// and 3 in the deployment (§5.3): entries older than a configurable maximum
// age are purged, connectivity or not. A tracked lower bound on the oldest
// enqueue instant lets the purge return at once while nothing can be stale.
package store

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"sync"
	"time"
)

// DefaultMaxAge is the deployment's purge threshold: messages older than 24
// hours are dropped.
const DefaultMaxAge = 24 * time.Hour

// Entry is one buffered outbound message.
type Entry struct {
	ID uint64 `json:"id"`
	// To is the destination peer (bare JID user) the message is addressed
	// to; device messages go to their collector and vice versa.
	To      string `json:"to"`
	Channel string `json:"ch"`
	// Seq is the sender's per-(To,Channel) FIFO sequence number, assigned by
	// the transport endpoint. It survives reboots with the entry so the
	// receiver's ordered-delivery state stays coherent across replays.
	Seq        uint64 `json:"seq"`
	Payload    []byte `json:"payload"`
	EnqueuedAt int64  `json:"at"` // UnixMilli
}

// Enqueued returns the entry's enqueue instant.
func (e Entry) Enqueued() time.Time { return time.UnixMilli(e.EnqueuedAt).UTC() }

// record is one log line.
type record struct {
	Op string `json:"op"` // "add" or "del"
	Entry
}

// ErrClosed is returned by operations on a closed outbox.
var ErrClosed = errors.New("store: outbox closed")

// slot is one position of the ordered live set.
type slot struct {
	Entry
	cl   *chanLive
	dead bool // acked or purged; waiting to be trimmed or squeezed out
}

// chanLive is the live bookkeeping of one (To, Channel) pair. Within a pair
// the transport assigns IDs and sequences together, so the lowest live ID
// carries the lowest live sequence — the floor the pair's envelopes
// advertise. The record outlives a drained channel (count 0): a channel that
// empties and refills on every round trip must not allocate each time.
type chanLive struct {
	channel string
	count   int    // live entries
	headID  uint64 // lowest live ID; meaningful while count > 0
	lowSeq  uint64 // that entry's Seq
}

// Outbox is a durable FIFO of outbound messages. The zero value is not
// usable; construct with Open or OpenMemory. All methods are goroutine-safe.
type Outbox struct {
	mu   sync.Mutex
	path string // "" for memory-only
	file *os.File
	w    *bufio.Writer

	// slots[head:] is the live set in ID order, dead slots included until
	// trimLocked drops them; slots[:head] is the zeroed, already-dropped
	// prefix (kept so the backing array is reused instead of re-grown).
	slots []slot
	head  int
	live  int // live slots; the other len(slots) − live positions are wasted
	// chans holds each destination's channel records, allocated on first use.
	chans map[string][]*chanLive
	// oldest is a lower bound on EnqueuedAt over the live entries (exact
	// after a purge walk; acks leave it stale, which only errs towards
	// walking). Meaningless while live == 0.
	oldest int64

	nextID   uint64
	deadRecs int // deleted records still in the log (compaction trigger)
	closed   bool
}

// OpenMemory returns a volatile outbox (no file); used where durability is
// not under test.
func OpenMemory() *Outbox {
	return &Outbox{nextID: 1}
}

// Open opens (creating if absent) a durable outbox backed by the log file at
// path, replaying any existing records.
func Open(path string) (*Outbox, error) {
	o := &Outbox{path: path, nextID: 1}
	if err := o.replay(); err != nil {
		return nil, fmt.Errorf("store: replay %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", path, err)
	}
	o.file = f
	o.w = bufio.NewWriter(f)
	return o, nil
}

// replay loads the log into memory. Truncated/corrupt trailing lines (a
// crash mid-write) are tolerated: parsing stops at the first bad line.
func (o *Outbox) replay() error {
	f, err := os.Open(o.path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil {
			break // torn tail write; ignore the rest
		}
		switch rec.Op {
		case "add":
			o.replayAdd(rec.Entry)
			if rec.ID >= o.nextID {
				o.nextID = rec.ID + 1
			}
		case "del":
			if i := o.findLocked(rec.ID); i >= 0 {
				o.slots[i].dead = true
			}
			o.deadRecs++
		}
	}
	// Drop what the log deleted, then index what is left.
	o.slots = slices.DeleteFunc(o.slots, func(s slot) bool { return s.dead })
	for i := range o.slots {
		o.indexLocked(&o.slots[i])
	}
	return sc.Err()
}

// replayAdd places a replayed entry in ID order. Logs this package wrote add
// in ascending ID order, so the append is the only path they take; a log
// assembled by other means may repeat an ID (the last record wins) or go
// backwards.
func (o *Outbox) replayAdd(e Entry) {
	n := len(o.slots)
	if n == 0 || e.ID > o.slots[n-1].ID {
		o.slots = append(o.slots, slot{Entry: e})
		return
	}
	i := o.searchLocked(e.ID)
	if o.slots[i].ID == e.ID {
		o.slots[i] = slot{Entry: e}
		return
	}
	o.slots = slices.Insert(o.slots, i, slot{Entry: e})
}

// indexLocked books a newly live slot into the per-channel and age
// bookkeeping. Slots are indexed in ID order, so the first one seen for a
// drained channel is its head.
func (o *Outbox) indexLocked(s *slot) {
	cl := o.chanLocked(s.To, s.Channel)
	if cl.count == 0 {
		cl.headID, cl.lowSeq = s.ID, s.Seq
	}
	cl.count++
	s.cl = cl
	if o.live == 0 || s.EnqueuedAt < o.oldest {
		o.oldest = s.EnqueuedAt
	}
	o.live++
}

// chanLocked returns the (to, channel) record, creating it on first use. A
// destination's channels are few, so they sit in a slice scanned linearly:
// one map probe per call instead of two, and no string concatenation.
func (o *Outbox) chanLocked(to, channel string) *chanLive {
	list := o.chans[to]
	for _, cl := range list {
		if cl.channel == channel {
			return cl
		}
	}
	cl := &chanLive{channel: channel}
	if o.chans == nil {
		o.chans = make(map[string][]*chanLive)
	}
	o.chans[to] = append(list, cl)
	return cl
}

// searchLocked returns the index of the first slot in slots[head:] whose ID
// is ≥ id (len(slots) when there is none). IDs are dense until a squeeze or a
// replayed gap, so the slot is usually exactly id − headID positions in.
func (o *Outbox) searchLocked(id uint64) int {
	lo, hi := o.head, len(o.slots)
	if lo == hi || id <= o.slots[lo].ID {
		return lo
	}
	if d := id - o.slots[lo].ID; d < uint64(hi-lo) && o.slots[lo+int(d)].ID == id {
		return lo + int(d)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if o.slots[mid].ID < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// findLocked returns the index of the live slot holding id, or -1.
func (o *Outbox) findLocked(id uint64) int {
	i := o.searchLocked(id)
	if i == len(o.slots) || o.slots[i].ID != id || o.slots[i].dead {
		return -1
	}
	return i
}

// Add buffers a message addressed to peer `to`, returning its ID. seq is the
// sender's per-(to,channel) FIFO sequence number; at is the enqueue instant
// (the node's clock, so simulated runs age messages in simulated time).
func (o *Outbox) Add(to, channel string, seq uint64, payload []byte, at time.Time) (uint64, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return 0, ErrClosed
	}
	e := Entry{
		ID:         o.nextID,
		To:         to,
		Channel:    channel,
		Seq:        seq,
		Payload:    append([]byte(nil), payload...),
		EnqueuedAt: at.UnixMilli(),
	}
	o.nextID++
	if err := o.writeLocked("add", e); err != nil {
		return 0, err
	}
	if err := o.flushLocked(); err != nil {
		return 0, err
	}
	o.slots = append(o.slots, slot{Entry: e})
	o.indexLocked(&o.slots[len(o.slots)-1])
	return e.ID, nil
}

// Ack removes delivered messages by ID. Unknown IDs are ignored. The call's
// deletion records reach the OS in one write before it returns.
func (o *Outbox) Ack(ids ...uint64) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return ErrClosed
	}
	var err error
	for _, id := range ids {
		i := o.findLocked(id)
		if i < 0 {
			continue
		}
		if err = o.writeLocked("del", Entry{ID: id}); err != nil {
			break
		}
		o.killLocked(i)
	}
	return o.settleLocked(err)
}

// killLocked marks slot i dead and moves its channel's head to the next live
// entry of the same channel. The forward scan only ever moves a channel's
// head up the slice, so over a channel's life it visits each slot once.
func (o *Outbox) killLocked(i int) {
	s := &o.slots[i]
	s.dead = true
	s.Payload = nil
	o.live--
	o.deadRecs++
	cl := s.cl
	cl.count--
	if cl.count == 0 || cl.headID != s.ID {
		return
	}
	for j := i + 1; j < len(o.slots); j++ {
		if t := &o.slots[j]; t.cl == cl && !t.dead {
			cl.headID, cl.lowSeq = t.ID, t.Seq
			return
		}
	}
}

// settleLocked ends a call that deleted entries: its buffered records go to
// the OS in one write, dead slots are dropped, and the log is compacted when
// dead records dominate. err is the call's own failure, if any.
func (o *Outbox) settleLocked(err error) error {
	if ferr := o.flushLocked(); err == nil {
		err = ferr
	}
	o.trimLocked()
	if err != nil {
		return err
	}
	return o.maybeCompactLocked()
}

// trimLocked drops dead slots from the head and squeezes the rest out once
// the wasted positions outnumber the live ones — each slot is moved at most
// once per squeeze and a squeeze is paid for by the deletions since the
// last, so the cost per deletion stays constant.
func (o *Outbox) trimLocked() {
	for o.head < len(o.slots) && o.slots[o.head].dead {
		o.slots[o.head] = slot{}
		o.head++
	}
	if o.head == len(o.slots) {
		o.slots, o.head = o.slots[:0], 0
		return
	}
	if wasted := len(o.slots) - o.live; wasted < 32 || wasted <= o.live {
		return
	}
	n := 0
	for i := o.head; i < len(o.slots); i++ {
		if !o.slots[i].dead {
			o.slots[n] = o.slots[i]
			n++
		}
	}
	clear(o.slots[n:])
	o.slots, o.head = o.slots[:n], 0
}

// Pending returns all buffered entries in ID (FIFO) order.
func (o *Outbox) Pending() []Entry {
	return o.PendingInto(nil)
}

// PendingInto is Pending with caller-supplied scratch: entries are appended
// into buf[:0] and the (possibly grown) slice is returned.
func (o *Outbox) PendingInto(buf []Entry) []Entry {
	return o.AppendAfter(buf[:0], 0)
}

// AppendAfter appends the buffered entries with ID > after to dst in ID
// order and returns the extended slice — the cursor read: a caller that
// remembers the last ID it saw pays only for what was added since.
func (o *Outbox) AppendAfter(dst []Entry, after uint64) []Entry {
	o.mu.Lock()
	defer o.mu.Unlock()
	if after == math.MaxUint64 {
		return dst
	}
	for i := o.searchLocked(after + 1); i < len(o.slots); i++ {
		if s := &o.slots[i]; !s.dead {
			dst = append(dst, s.Entry)
		}
	}
	return dst
}

// Get returns the buffered entry with the given ID.
func (o *Outbox) Get(id uint64) (Entry, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	i := o.findLocked(id)
	if i < 0 {
		return Entry{}, false
	}
	return o.slots[i].Entry, true
}

// AppendFloors appends, for every channel with entries buffered for peer
// `to`, the channel and the sequence number of its oldest buffered entry —
// the floors the transport advertises. Order is unspecified.
func (o *Outbox) AppendFloors(to string, channels []string, seqs []uint64) ([]string, []uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, cl := range o.chans[to] {
		if cl.count > 0 {
			channels = append(channels, cl.channel)
			seqs = append(seqs, cl.lowSeq)
		}
	}
	return channels, seqs
}

// Len returns the number of buffered entries.
func (o *Outbox) Len() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.live
}

// PurgeExpired drops entries enqueued more than maxAge before now and
// returns the dropped entries in ID order — the transport endpoint needs
// them to advance its per-channel delivery floors. maxAge ≤ 0 disables
// purging.
func (o *Outbox) PurgeExpired(now time.Time, maxAge time.Duration) ([]Entry, error) {
	if maxAge <= 0 {
		return nil, nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return nil, ErrClosed
	}
	cutoff := now.Add(-maxAge).UnixMilli()
	if o.live == 0 || o.oldest >= cutoff {
		return nil, nil
	}
	var dropped []Entry
	var err error
	oldest := int64(math.MaxInt64)
	for i := o.head; i < len(o.slots) && err == nil; i++ {
		s := &o.slots[i]
		if s.dead {
			continue
		}
		if s.EnqueuedAt >= cutoff {
			oldest = min(oldest, s.EnqueuedAt)
			continue
		}
		if err = o.writeLocked("del", Entry{ID: s.ID}); err == nil {
			dropped = append(dropped, s.Entry)
			o.killLocked(i)
		}
	}
	if err == nil {
		o.oldest = oldest // the walk finished: the bound is exact again
	}
	return dropped, o.settleLocked(err)
}

// Close flushes and closes the log file. The outbox rejects further writes.
func (o *Outbox) Close() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return nil
	}
	o.closed = true
	if o.file == nil {
		return nil
	}
	if err := o.w.Flush(); err != nil {
		o.file.Close()
		return err
	}
	return o.file.Close()
}

// writeLocked buffers one log record; flushLocked hands the buffered records
// to the OS. The paper's durability requirement is surviving a reboot, so
// every mutating call flushes before it returns — once, however many
// records it wrote.
func (o *Outbox) writeLocked(op string, e Entry) error {
	if o.file == nil {
		return nil // memory-only
	}
	return writeRecord(o.w, op, e)
}

func (o *Outbox) flushLocked() error {
	if o.file == nil {
		return nil
	}
	return o.w.Flush()
}

func writeRecord(w *bufio.Writer, op string, e Entry) error {
	b, err := json.Marshal(record{Op: op, Entry: e})
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// maybeCompactLocked rewrites the log when dead records dominate.
func (o *Outbox) maybeCompactLocked() error {
	if o.file == nil || o.deadRecs < 64 || o.deadRecs < 4*o.live {
		return nil
	}
	if err := o.compactLocked(); err != nil {
		return fmt.Errorf("store: compact %s: %w", o.path, err)
	}
	return nil
}

// renameFile is os.Rename, replaceable so a test can fail the one step of a
// compaction that cannot be provoked through the file system alone.
var renameFile = os.Rename

// compactLocked rewrites the log as the live entries alone. The new file is
// written and renamed over the log while the old one is still open, and the
// handle it was written through becomes the live one — so a failure at any
// step leaves the outbox appending to the old, complete log.
func (o *Outbox) compactLocked() error {
	tmp := o.path + ".compact"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i := o.head; i < len(o.slots) && err == nil; i++ {
		if s := &o.slots[i]; !s.dead {
			err = writeRecord(w, "add", s.Entry)
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = renameFile(tmp, o.path)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	o.file.Close() // the replaced log: nothing buffered, nothing left to lose
	o.file, o.w = f, w
	o.deadRecs = 0
	return nil
}
