// Package store implements Pogo's durable message outbox (§4.6 of the
// paper).
//
// Messages destined for a remote node are not sent immediately: they are
// buffered so transmissions can be batched into another application's 3G
// tail, and they must survive a reboot or battery death. The paper uses an
// embedded SQL database; this implementation uses an append-only log of
// checksummed binary records, cut into segment files so that space is
// reclaimed by unlinking whole files, which provides the same durability
// semantics with only the standard library.
//
// # In memory
//
// The live set is one slice in ID order: IDs are assigned monotonically, so
// Add appends, an ack marks its slot dead, dead slots are dropped from the
// head as they surface and squeezed out when they outnumber the live ones.
// Reading the backlog is an ordered walk, reading "everything after ID x"
// (the transport's send cursor) starts at a binary search, and a
// per-(destination, channel) record of the lowest live sequence answers the
// envelope floors without looking at the entries at all — so nothing the
// transport does per flush costs more than the entries it touches.
//
// # On disk
//
// A segment file is the 8 bytes "pogobox\x01" (name and format version)
// followed by records. A record is
//
//	u32 n | u32 crc | type | body[n]
//
// both integers little-endian, crc the CRC-32C (Castagnoli) of the type byte
// and the body. Three types exist:
//
//	1 header  uvarint: the next ID the outbox will assign
//	2 add     uvarint ID, uvarint Seq, varint EnqueuedAt (Unix ms),
//	          uvarint len + To, uvarint len + Channel, then the payload:
//	          the message's binary encoding exactly as the wire carries it
//	3 del     (uvarint first ID, uvarint count)…: the IDs acknowledged or
//	          purged by one call, as runs — an in-order ack set is one pair
//
// A segment's first record is its header, so the IDs an outbox has ever
// assigned outlive the records that used them: acks carry bare IDs, and an
// ID handed out twice would let a late ack from the last boot delete a new
// entry.
//
// The active segment is the file at the outbox's path. Once a write takes it
// past segmentSize it is sealed — renamed to path.<n>, n counting up — and
// a new active segment is started, header first. A sealed segment is
// unlinked once none of its add records is the current one of a live entry
// and every older segment is already gone: a younger segment may hold the
// del records that keep an older one's entries dead, so only a prefix of the
// sequence may ever be dropped. When more than one sealed segment is waiting
// and at most a quarter of the oldest one's add records are still current
// — it is pinned by stragglers — those entries are appended to the active
// segment again under their own IDs and the old file is unlinked, which
// keeps the disk within a few segments of the live data.
//
// Every mutating call builds its records in one buffer and copies them, in
// one copy, into a shared writable mapping of the active segment before it
// returns. A mapped page is the file's page in the OS page cache: a second
// reader of the files sees the records at once, and they survive the death
// of the process — with no system call per call. The mapping covers the
// file's capacity, which starts at one page on the segment's first write
// and doubles up to segmentSize; growing it writes real zeros past the log,
// so that a store into the mapping cannot find the disk full, and sealing
// or closing the segment cuts the file back to its log. While the outbox is
// open the active file therefore ends in zeros, and a process that dies
// leaves them there: replay reads them as the torn tail they are (no record
// has type 0). Nothing is fsynced yet, so surviving a power cut is not
// promised. Off unix, the capacity is reserved the same way and each call's
// records go to the file in one WriteAt.
//
// Replay reads the sealed segments in order, then the active one, and
// applies every record whose checksum holds; for an ID added more than once
// the last record wins. At a record that fails — flipped bits in its body or
// its header — replay moves on byte by byte to the next position holding a
// whole record that checks out, so damage costs the damaged record and not
// what follows it (a lost del resurrects its entries; the receiver's
// duplicate filter is the backstop). Whatever trails the active segment's
// last good record is a torn write and is cut off before anything is
// appended. A file that does not begin with the magic is not touched: Open
// returns an error naming it — unless nothing but zeros follows a torn start
// of it, which is a segment whose capacity was reserved before its first
// record arrived.
//
// The outbox also implements the message-ageing policy that bit users 2a
// and 3 in the deployment (§5.3): entries older than a configurable maximum
// age are purged, connectivity or not. A tracked lower bound on the oldest
// enqueue instant lets the purge return at once while nothing can be stale.
package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// DefaultMaxAge is the deployment's purge threshold: messages older than 24
// hours are dropped.
const DefaultMaxAge = 24 * time.Hour

// Entry is one buffered outbound message.
type Entry struct {
	ID uint64
	// To is the destination peer (bare JID user) the message is addressed
	// to; device messages go to their collector and vice versa.
	To      string
	Channel string
	// Seq is the sender's per-(To,Channel) FIFO sequence number, assigned by
	// the transport endpoint. It survives reboots with the entry so the
	// receiver's ordered-delivery state stays coherent across replays.
	Seq        uint64
	Payload    []byte
	EnqueuedAt int64 // UnixMilli
}

// Enqueued returns the entry's enqueue instant.
func (e Entry) Enqueued() time.Time { return time.UnixMilli(e.EnqueuedAt).UTC() }

// errClosed is returned by operations on a closed outbox.
var errClosed = errors.New("store: outbox closed")

// The on-disk format; the package comment describes it.
const (
	segmentMagic = "pogobox\x01"
	recOverhead  = 9 // u32 body length, u32 CRC, type byte

	recHeader = 1
	recAdd    = 2
	recDel    = 3

	// maxBody bounds what the u32 length of an add record must express.
	maxBody = math.MaxUint32 - 64
)

// castagnoli is the polynomial of the record checksum: the one storage
// formats use, and the one with a CPU instruction that is fast on records of
// a few dozen bytes too.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// segmentSize is the size past which the active segment is sealed. A
// variable only so that tests can shrink it.
var segmentSize int64 = 1 << 20

// renameFile is os.Rename, replaceable so a test can fail the one step of a
// seal that cannot be provoked through the file system alone.
var renameFile = os.Rename

// segment is the bookkeeping of one log file. The last of Outbox.segs is the
// active segment, at Outbox.path; the others are sealed, oldest first.
type segment struct {
	n    uint64 // the file is path.<n>; 0 while it is still at path
	size int64
	adds int // add records in the file
	live int // live entries whose current add record is one of them
}

// slot is one position of the ordered live set.
type slot struct {
	Entry
	cl   *chanLive
	seg  *segment // holds the entry's current add record; nil without a log
	dead bool     // acked or purged; waiting to be trimmed or squeezed out
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

	// The log, all nil or zero for a memory-only outbox. file is the active
	// segment; buf is the reused buffer a call's records are built in.
	file    segmentFile
	buf     []byte
	segs    []*segment
	nextSeg uint64 // the number the next sealed segment takes

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

	nextID uint64
	closed bool
}

// OpenMemory returns a volatile outbox (no file); used where durability is
// not under test.
func OpenMemory() *Outbox {
	return &Outbox{nextID: 1}
}

// Open opens (creating if absent) a durable outbox whose active log segment
// is the file at path and whose sealed segments are path.<n> beside it,
// replaying what they hold. Opening writes nothing, except that a torn tail
// of the active segment is cut off.
func Open(path string) (*Outbox, error) {
	o := &Outbox{path: path, nextID: 1, nextSeg: 1}
	if err := o.replay(); err != nil {
		return nil, fmt.Errorf("store: replay %s: %w", path, err)
	}
	f, err := openActive(path, 0, o.segs[len(o.segs)-1].size)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", path, err)
	}
	o.file = f
	return o, nil
}

// sealedName returns the file name of sealed segment n.
func (o *Outbox) sealedName(n uint64) string {
	return o.path + "." + strconv.FormatUint(n, 10)
}

// sealedSegments lists the numbers of the sealed segments on disk, oldest
// first.
func (o *Outbox) sealedSegments() ([]uint64, error) {
	dir, base := filepath.Split(o.path)
	if dir == "" {
		dir = "."
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var ns []uint64
	for _, ent := range ents {
		if suffix, ok := strings.CutPrefix(ent.Name(), base+"."); ok {
			if n, err := strconv.ParseUint(suffix, 10, 64); err == nil && n > 0 {
				ns = append(ns, n)
			}
		}
	}
	slices.Sort(ns)
	return ns, nil
}

// replay loads the log into memory: the sealed segments oldest first, then
// the active one, whose torn tail it cuts off.
func (o *Outbox) replay() error {
	sealed, err := o.sealedSegments()
	if err != nil {
		return err
	}
	in := interner{}
	for _, n := range sealed {
		data, err := os.ReadFile(o.sealedName(n))
		if err != nil {
			return err
		}
		seg := &segment{n: n, size: int64(len(data))}
		if _, err := o.replaySegment(seg, data, in); err != nil {
			return fmt.Errorf("%s: %w", o.sealedName(n), err)
		}
		o.segs = append(o.segs, seg)
		o.nextSeg = n + 1
	}
	data, err := os.ReadFile(o.path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	act := &segment{}
	good, err := o.replaySegment(act, data, in)
	if err != nil {
		return err
	}
	if good <= len(segmentMagic) {
		good = 0 // no record survives: start the segment over, header and all
	}
	if good < len(data) {
		if err := os.Truncate(o.path, int64(good)); err != nil {
			return err
		}
	}
	act.size = int64(good)
	o.segs = append(o.segs, act)

	// Drop what the log deleted, then index what is left.
	o.slots = slices.DeleteFunc(o.slots, func(s slot) bool { return s.dead })
	for i := range o.slots {
		o.indexLocked(&o.slots[i])
	}
	return nil
}

// errForeign is what replay makes of a file that does not start with the
// segment magic: some other program's, or another format version's.
var errForeign = errors.New("not an outbox log segment of this format version (left untouched)")

// replaySegment applies the records of one segment file and returns the
// offset just past the last good one. Payloads alias data.
func (o *Outbox) replaySegment(seg *segment, data []byte, in interner) (good int, err error) {
	if head := bytes.TrimRight(data, "\x00"); len(head) < len(segmentMagic) {
		if !strings.HasPrefix(segmentMagic, string(head)) {
			return 0, errForeign
		}
		// Empty, the torn start of a header, or the zeros a growth reserved
		// before the segment's first record arrived.
		return 0, nil
	}
	if string(data[:len(segmentMagic)]) != segmentMagic {
		return 0, errForeign
	}
	p := len(segmentMagic)
	good = p
	for p+recOverhead <= len(data) {
		n, typ := uint64(binary.LittleEndian.Uint32(data[p:])), data[p+8]
		if n <= uint64(len(data)-p-recOverhead) && typ >= recHeader && typ <= recDel {
			end := p + recOverhead + int(n)
			if crc32.Checksum(data[p+8:end], castagnoli) == binary.LittleEndian.Uint32(data[p+4:]) &&
				o.replayRecord(seg, typ, data[p+recOverhead:end:end], in) {
				p, good = end, end
				continue
			}
		}
		// Damaged, or the torn tail: try every later position, so that a bad
		// length cannot hide the records after it.
		p++
	}
	return good, nil
}

// replayRecord applies one record whose checksum held; false if its body
// does not parse after all.
func (o *Outbox) replayRecord(seg *segment, typ byte, body []byte, in interner) bool {
	r := reader{b: body}
	switch typ {
	case recHeader:
		if next := r.uvarint(); !r.bad {
			o.nextID = max(o.nextID, next)
		}
	case recAdd:
		e := Entry{ID: r.uvarint(), Seq: r.uvarint(), EnqueuedAt: r.varint()}
		to, channel := r.bytes(), r.bytes()
		if r.bad || e.ID == math.MaxUint64 {
			return false
		}
		e.To, e.Channel = in.intern(to), in.intern(channel)
		if len(r.b) > 0 {
			e.Payload = r.b
		}
		o.replayAdd(e, seg)
		o.nextID = max(o.nextID, e.ID+1)
	case recDel:
		for len(r.b) > 0 && !r.bad {
			first, count := r.uvarint(), r.uvarint()
			for i := o.searchLocked(first); i < len(o.slots) && o.slots[i].ID-first < count; i++ {
				o.slots[i].dead = true
			}
		}
	}
	return !r.bad
}

// reader takes the fields of a record body apart; bad is set, and stays set,
// once one of them does not parse.
type reader struct {
	b   []byte
	bad bool
}

func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if r.bad = r.bad || n <= 0; r.bad {
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) varint() int64 {
	v, n := binary.Varint(r.b)
	if r.bad = r.bad || n <= 0; r.bad {
		return 0
	}
	r.b = r.b[n:]
	return v
}

// bytes reads a length-prefixed string.
func (r *reader) bytes() []byte {
	l := r.uvarint()
	if r.bad = r.bad || l > uint64(len(r.b)); r.bad {
		return nil
	}
	s := r.b[:l]
	r.b = r.b[l:]
	return s
}

// interner makes the To and Channel of replayed entries share storage: a
// log names few destinations and channels, many times each.
type interner map[string]string

func (in interner) intern(b []byte) string {
	s, ok := in[string(b)]
	if !ok {
		s = string(b)
		in[s] = s
	}
	return s
}

// replayAdd places a replayed entry in ID order. Logs this package wrote add
// in ascending ID order, except that a relocated straggler repeats its ID
// (the last record wins); a log assembled by other means may also go
// backwards.
func (o *Outbox) replayAdd(e Entry, seg *segment) {
	seg.adds++
	s := slot{Entry: e, seg: seg}
	n := len(o.slots)
	if n == 0 || e.ID > o.slots[n-1].ID {
		o.slots = append(o.slots, s)
		return
	}
	i := o.searchLocked(e.ID)
	if o.slots[i].ID == e.ID {
		o.slots[i] = s
		return
	}
	o.slots = slices.Insert(o.slots, i, s)
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
	if s.seg != nil {
		s.seg.live++
	}
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
// (the node's clock, so simulated runs age messages in simulated time). The
// entry keeps payload itself, not a copy: the caller hands it over and must
// not write to it again (the transport passes a message's immutable
// encoding).
func (o *Outbox) Add(to, channel string, seq uint64, payload []byte, at time.Time) (uint64, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return 0, errClosed
	}
	e := Entry{
		ID:         o.nextID,
		To:         to,
		Channel:    channel,
		Seq:        seq,
		Payload:    payload,
		EnqueuedAt: at.UnixMilli(),
	}
	var act *segment
	if o.file != nil {
		if uint64(len(to))+uint64(len(channel))+uint64(len(payload)) > maxBody {
			return 0, errors.New("store: message too large for a log record")
		}
		if err := o.writeLocked(appendAdd(o.startLocked(), &e)); err != nil {
			return 0, err
		}
		act = o.segs[len(o.segs)-1]
		act.adds++
	}
	o.nextID++
	o.slots = append(o.slots, slot{Entry: e, seg: act})
	o.indexLocked(&o.slots[len(o.slots)-1])
	if act != nil {
		o.maintainLocked()
	}
	return e.ID, nil
}

// Ack removes delivered messages by ID. Unknown IDs are ignored. The call's
// deletions reach the OS as one record in one write before it returns; a
// call whose write fails deletes nothing.
func (o *Outbox) Ack(ids ...uint64) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return errClosed
	}
	var del runs
	for _, id := range ids {
		if i := o.findLocked(id); i >= 0 {
			o.slots[i].dead = true
			del.add(id)
		}
	}
	return o.settleLocked(&del)
}

// AckTo is Ack for acknowledgements from peer to: it skips the IDs of
// entries addressed to another peer and returns the IDs it took, filtering
// ids in place.
func (o *Outbox) AckTo(to string, ids []uint64) ([]uint64, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return ids[:0], errClosed
	}
	keep := ids[:0]
	var del runs
	for _, id := range ids {
		i := o.findLocked(id)
		if i >= 0 && o.slots[i].To != to {
			continue
		}
		keep = append(keep, id)
		if i >= 0 {
			o.slots[i].dead = true
			del.add(id)
		}
	}
	return keep, o.settleLocked(&del)
}

// killLocked completes the deletion of slot i, which the call marked dead:
// it drops the payload, books the live counts, and moves the channel's head
// to the next live entry of the same channel. The forward scan only ever
// moves a channel's head up the slice, so over a channel's life it visits
// each slot once.
func (o *Outbox) killLocked(i int) {
	s := &o.slots[i]
	s.Payload = nil
	o.live--
	if s.seg != nil {
		s.seg.live--
	}
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

// settleLocked ends a call that marked the entries del names dead: their IDs
// go to the OS as one del record in one write, and only then do the entries
// leave memory. A write that fails revives them, so the outbox holds what a
// reopen would find. Dead slots are dropped, and segments the deletions
// emptied are unlinked.
func (o *Outbox) settleLocked(del *runs) error {
	written := o.file != nil && del.count > 0
	if written {
		b, at := beginRecord(o.startLocked(), recDel)
		for _, r := range del.done {
			b = binary.AppendUvarint(binary.AppendUvarint(b, r[0]), r[1])
		}
		b = binary.AppendUvarint(binary.AppendUvarint(b, del.first), del.count)
		endRecord(b, at)
		if err := o.writeLocked(b); err != nil {
			o.eachLocked(del, func(i int) { o.slots[i].dead = false })
			return err
		}
	}
	o.eachLocked(del, o.killLocked)
	o.trimLocked()
	if written {
		o.maintainLocked()
	}
	return nil
}

// eachLocked calls fn with the slot index of every ID del names.
func (o *Outbox) eachLocked(del *runs, fn func(i int)) {
	run := func(first, count uint64) {
		for id := first; id < first+count; id++ {
			fn(o.searchLocked(id))
		}
	}
	for _, r := range del.done {
		run(r[0], r[1])
	}
	run(del.first, del.count)
}

// runs collects the IDs one call deletes as (first ID, count) runs, in the
// order given. An in-order set — what an ack envelope carries and what a
// purge walks — stays in first and count and allocates nothing.
type runs struct {
	first, count uint64
	done         [][2]uint64 // the runs before the current one
}

func (r *runs) add(id uint64) {
	if r.count > 0 && id == r.first+r.count {
		r.count++
		return
	}
	if r.count > 0 {
		r.done = append(r.done, [2]uint64{r.first, r.count})
	}
	r.first, r.count = id, 1
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
// purging. A purge whose write fails drops nothing.
func (o *Outbox) PurgeExpired(now time.Time, maxAge time.Duration) ([]Entry, error) {
	if maxAge <= 0 {
		return nil, nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return nil, errClosed
	}
	cutoff := now.Add(-maxAge).UnixMilli()
	if o.live == 0 || o.oldest >= cutoff {
		return nil, nil
	}
	var dropped []Entry
	var del runs
	oldest := int64(math.MaxInt64)
	for i := o.head; i < len(o.slots); i++ {
		s := &o.slots[i]
		if s.dead {
			continue
		}
		if s.EnqueuedAt >= cutoff {
			oldest = min(oldest, s.EnqueuedAt)
			continue
		}
		dropped = append(dropped, s.Entry)
		del.add(s.ID)
		s.dead = true
	}
	if err := o.settleLocked(&del); err != nil {
		return nil, err
	}
	o.oldest = oldest // the walk finished: the bound is exact again
	return dropped, nil
}

// Close closes the log file. The outbox rejects further writes.
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
	return o.file.close(o.segs[len(o.segs)-1].size)
}

// beginRecord starts a record of the given type at the end of b; endRecord
// fills in the length and checksum once the body has been appended.
func beginRecord(b []byte, typ byte) (_ []byte, at int) {
	return append(b, 0, 0, 0, 0, 0, 0, 0, 0, typ), len(b)
}

func endRecord(b []byte, at int) {
	binary.LittleEndian.PutUint32(b[at:], uint32(len(b)-at-recOverhead))
	binary.LittleEndian.PutUint32(b[at+4:], crc32.Checksum(b[at+8:], castagnoli))
}

func appendAdd(b []byte, e *Entry) []byte {
	b, at := beginRecord(b, recAdd)
	b = binary.AppendUvarint(b, e.ID)
	b = binary.AppendUvarint(b, e.Seq)
	b = binary.AppendVarint(b, e.EnqueuedAt)
	b = append(binary.AppendUvarint(b, uint64(len(e.To))), e.To...)
	b = append(binary.AppendUvarint(b, uint64(len(e.Channel))), e.Channel...)
	b = append(b, e.Payload...)
	endRecord(b, at)
	return b
}

// startLocked returns the buffer a call builds its records in. While the
// active segment is an empty file the buffer starts with the segment's
// header, which so goes out in front of the first record, in the same write.
func (o *Outbox) startLocked() []byte {
	b := o.buf[:0]
	if o.segs[len(o.segs)-1].size == 0 {
		b = o.appendHeader(b)
	}
	return b
}

// appendHeader appends what a segment file starts with.
func (o *Outbox) appendHeader(b []byte) []byte {
	b, at := beginRecord(append(b, segmentMagic...), recHeader)
	b = binary.AppendUvarint(b, o.nextID)
	endRecord(b, at)
	return b
}

// writeLocked appends a call's records to the active segment in one copy.
// The paper's durability requirement is surviving a reboot, so every
// mutating call writes before it returns — once, however many records it
// built. A write that fails leaves the log where it was: what part of b
// arrived lies past its end, where the next write overwrites it and replay
// cuts it off as a torn tail.
func (o *Outbox) writeLocked(b []byte) error {
	o.buf = b[:0]
	act := o.segs[len(o.segs)-1]
	end := act.size + int64(len(b))
	if err := o.file.grow(end); err != nil {
		return err
	}
	if err := o.file.write(act.size, b); err != nil {
		return err
	}
	act.size = end
	return nil
}

// maintainLocked reclaims disk after a write: it seals the active segment
// once it is full, unlinks the oldest sealed segment once nothing in it is
// live — never a younger one first, whose del records may be all that keeps
// the older one's entries dead — and, when more than one sealed segment
// waits and the oldest is pinned by stragglers, moves those to the active
// segment. A step that fails is not the caller's failure — the call's own
// record is in the log — and costs disk, not data: the next write tries
// again.
func (o *Outbox) maintainLocked() {
	for {
		old, act := o.segs[0], o.segs[len(o.segs)-1]
		switch {
		case act.size >= segmentSize:
			if o.sealLocked(act) != nil {
				return
			}
		case old != act && old.live == 0:
			if err := os.Remove(o.sealedName(old.n)); err != nil && !errors.Is(err, os.ErrNotExist) {
				return
			}
			o.segs = slices.Delete(o.segs, 0, 1)
		case len(o.segs) > 2 && old.live*4 <= old.adds:
			if o.relocateLocked(old, act) != nil {
				return
			}
		default:
			return
		}
	}
}

// sealLocked renames the full active segment to its sealed name and starts
// a new one, writing its header at once: the IDs assigned so far must be on
// record before the segments that used them may go. Between the two steps
// the outbox keeps appending to the renamed file through the handle it
// holds, and a replay finds a log that merely has no active segment yet.
func (o *Outbox) sealLocked(act *segment) error {
	if act.n == 0 {
		if err := renameFile(o.path, o.sealedName(o.nextSeg)); err != nil {
			return err
		}
		act.n = o.nextSeg
		o.nextSeg++
	}
	// O_TRUNC: whatever is at path now is the debris of an earlier attempt.
	f, err := openActive(o.path, os.O_TRUNC, 0)
	if err != nil {
		return err
	}
	hdr := o.appendHeader(o.buf[:0])
	o.buf = hdr[:0]
	if err = f.grow(int64(len(hdr))); err == nil {
		err = f.write(0, hdr)
	}
	if err != nil {
		f.close(0)
		return err
	}
	// Everything is in the file already. Should cutting the zero tail fail,
	// the sealed segment keeps it, and replay steps over zeros.
	_ = o.file.close(act.size)
	o.file = f
	o.segs = append(o.segs, &segment{size: int64(len(hdr))})
	return nil
}

// relocateLocked appends the live entries of sealed segment old to the
// active segment, in one write, leaving old with nothing live. The entries
// keep their IDs; should old outlive the move (a crash, a failed unlink),
// replay lets the later record win.
func (o *Outbox) relocateLocked(old, act *segment) error {
	b := o.buf[:0]
	for i, n := o.head, old.live; n > 0 && i < len(o.slots); i++ {
		if s := &o.slots[i]; s.seg == old && !s.dead {
			b = appendAdd(b, &s.Entry)
			n--
		}
	}
	if err := o.writeLocked(b); err != nil {
		return err
	}
	for i := o.head; old.live > 0 && i < len(o.slots); i++ {
		if s := &o.slots[i]; s.seg == old && !s.dead {
			s.seg = act
			old.live--
			act.live++
			act.adds++
		}
	}
	return nil
}
