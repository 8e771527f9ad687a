package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"pogo/internal/msg"
)

// Envelope codec and framing: the zero-garbage half of the wire path.
// There is one envelope format, and both ends of every connection speak it.
//
// A switchboard payload is a 4-byte frame check — the CRC-32C (Castagnoli)
// of everything after it, little-endian — followed by the envelope:
//
//	magic     1 byte, envMagic
//	from      uvarint length + bytes
//	boot      uvarint length + bytes
//	channels  uvarint count, then count × (uvarint length + bytes): every
//	            channel the items and floors name, once, in order of first use
//	batch     uvarint count, then per item:
//	            id      uvarint, ID − the previous item's ID (the first: − 0)
//	            channel uvarint, index into the channel table << 2 |
//	                      shaped << 1 | kind
//	            seq     zigzag varint, Seq − the previous Seq on the same
//	                      channel in this envelope (the channel's first: − 0)
//	            trace   kind 0, a relayed publication: zigzag varint,
//	                      (Pub − ID) − the previous kind-0 item's (Pub − ID)
//	                      (the first: − 0); the receiver derives the trace,
//	                      obs.PublicationTrace(sender, Pub), and Pub 0 is
//	                      malformed
//	                    kind 1, any other item (a root, or a relayed entry
//	                      replayed after a reboot): 8 bytes little-endian,
//	                      the obs.TraceID itself (0 = untraced)
//	            body    uvarint length + bytes: the message (msg binary
//	                      codec), or for a shaped item its values alone
//	acks      uvarint count, then count zigzag varints, each ID − the
//	            previous ack ID (the first: − 0)
//	floors    uvarint count + count × (channel index uvarint, floor uvarint),
//	            channels sorted by name (deterministic bytes)
//
// An item is shaped when its message is a map with exactly the keys of the
// previous item's message on the same channel in the same envelope, a map
// too: it carries its values alone, in key order (msg.AppendValues), and
// the receiver puts the keys back from that earlier message
// (msg.AppendShaped) and validates the result like any other body. The
// encoder shapes every item it can, and the decoder refuses a map sent
// whole that it should have shaped, so an envelope has one encoding. The
// only exception is the cap: the rebuilt messages of one envelope take at
// most maxRebuilt bytes together, and an item that would pass it travels
// whole. Nothing outlives the envelope: a retransmission or a reboot needs
// no state the receiver might have lost.
//
// A flush's IDs ascend within one destination's envelope, its channels are
// few, and a node's publications are numbered in the order its outbox takes
// them, so a relayed publication with a body under 128 bytes costs the body
// plus 5 bytes, and any other item the body plus 12; a shaped item costs its
// values instead of its body. Deltas wrap modulo 2⁶⁴: any ID, Seq and
// publication order encodes, an unusual one only in more bytes.
//
// Anything else — a bad checksum, another first byte, a length or count that
// overruns the input, a channel index past the table, a truncated trace, a
// publication number 0, a shaped item with no map before it or with values
// that do not fit its keys, a map that should have been shaped, rebuilt
// messages past the cap, trailing bytes — is rejected and counted in
// transport_corrupt_dropped_total; the sender retransmits.
//
// Encode and decode recycle their storage: the channel table lives in the
// flush's and the receive's scratch, an envScratch carries the batch, ack,
// and floor storage from envelope to envelope, and the envelope's From and
// channel strings are interned — sensor fleets repeat the same few
// identifiers forever, so in steady state encoding an envelope allocates
// nothing and decoding one allocates at most one slab for the bodies it
// rebuilds and, from a lent payload, the bodies it copies.

// envMagic is the first byte of every envelope: 0xB0 | format version.
const envMagic = 0xB5

// maxRebuilt caps the bytes of the messages one envelope's shaped items
// rebuild, together. Keys are spelt once and put back in every shaped item,
// so without it a payload of a few kilobytes could make the receiver
// allocate gigabytes. A flush of 200 sensor readings rebuilds about 9 KB.
const maxRebuilt = 1 << 20

// minItemSize is the fewest bytes an item can take: one byte each for the ID
// delta, the channel index, the Seq delta, the publication delta and the
// body length.
const minItemSize = 5

var errEnvelope = errors.New("transport: malformed envelope")

// castagnoli is the frame check's polynomial, the outbox log's: hash/crc32
// computes it with the CPU's CRC instruction where there is one.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameHeader is the placeholder the encoder reserves at the front of a
// buffer; frameInto overwrites it with the frame check.
var frameHeader [4]byte

// frameInto fills the reserved frame check of buf (the CRC-32C of the
// envelope at buf[4:]) in place.
func frameInto(buf []byte) []byte {
	binary.LittleEndian.PutUint32(buf, crc32.Checksum(buf[len(frameHeader):], castagnoli))
	return buf
}

// chanTable is an envelope's channel table, as the encoder builds it and the
// decoder reads it: the channels in table order, each with the Seq of the
// last item on it so far, the base of the next item's delta, and the last
// message sent whole on it, the keys of a shaped item. It lives in recycled
// scratch, so it costs nothing in steady state.
type chanTable []chanEntry

type chanEntry struct {
	name  string
	seq   uint64
	shape []byte
}

// index returns ch's position in the table, adding it when it is new. A
// flush's envelope names a handful of channels: a scan beats a map.
func (t *chanTable) index(ch string) int {
	for i := range *t {
		if (*t)[i].name == ch {
			return i
		}
	}
	*t = append(*t, chanEntry{name: ch})
	return len(*t) - 1
}

// appendEnvelope appends the encoding of one envelope to dst, building its
// channel table in tab. Floors travel as parallel (channel, seq) slices, as
// both ends keep them, and floorCh must already be sorted.
func appendEnvelope(dst []byte, tab *chanTable, from, boot string, batch []envelopeItem, ack []uint64, floorCh []string, floorSeq []uint64) []byte {
	*tab = (*tab)[:0]
	for i := range batch {
		tab.index(batch[i].Channel)
	}
	for _, ch := range floorCh {
		tab.index(ch)
	}
	dst = append(dst, envMagic)
	dst = appendUvStr(dst, from)
	dst = appendUvStr(dst, boot)
	dst = binary.AppendUvarint(dst, uint64(len(*tab)))
	for _, e := range *tab {
		dst = appendUvStr(dst, e.name)
	}
	dst = binary.AppendUvarint(dst, uint64(len(batch)))
	var prevID, prevOff uint64
	rebuilt := 0
	for i := range batch {
		it := &batch[i]
		c := tab.index(it.Channel)
		ch := &(*tab)[c]
		kind := uint64(2) // shaped, until the body says otherwise
		if it.Pub == 0 {
			kind |= 1
		}
		dst = binary.AppendUvarint(dst, it.ID-prevID)
		kindAt := len(dst)
		dst = binary.AppendUvarint(dst, uint64(c)<<2|kind)
		dst = binary.AppendVarint(dst, int64(it.Seq-ch.seq))
		if it.Pub != 0 {
			off := it.Pub - it.ID
			dst = binary.AppendVarint(dst, int64(off-prevOff))
			prevOff = off
		} else {
			dst = binary.LittleEndian.AppendUint64(dst, it.Trace)
		}
		// The values go in where the body would, and their length in front
		// of them once it is known. The shaped bit is in the kind's first
		// byte, so clearing it leaves the kind's length alone.
		shaped := false
		valsAt := len(dst)
		if rebuilt+len(it.Body) <= maxRebuilt {
			dst, shaped = msg.AppendValues(dst, ch.shape, it.Body)
		}
		if shaped {
			var n [binary.MaxVarintLen64]byte
			dst = slices.Insert(dst, valsAt, n[:binary.PutUvarint(n[:], uint64(len(dst)-valsAt))]...)
			rebuilt += len(it.Body)
		} else {
			dst[kindAt] &^= 2
			dst = appendUvStr(dst, it.Body)
			ch.shape = it.Body
		}
		prevID, ch.seq = it.ID, it.Seq
	}
	dst = binary.AppendUvarint(dst, uint64(len(ack)))
	prevID = 0
	for _, id := range ack {
		dst = binary.AppendVarint(dst, int64(id-prevID))
		prevID = id
	}
	dst = binary.AppendUvarint(dst, uint64(len(floorCh)))
	for i, ch := range floorCh {
		dst = binary.AppendUvarint(dst, uint64(tab.index(ch)))
		dst = binary.AppendUvarint(dst, floorSeq[i])
	}
	return dst
}

func appendUvStr[S string | []byte](dst []byte, s S) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// envelope is one decoded switchboard payload: a batch of data messages
// and/or a set of acknowledgements.
type envelope struct {
	From string
	// Boot identifies the sender's process lifetime. Message IDs restart
	// after a reboot (fresh outbox), so the receiver resets its dedup state
	// for the sender whenever Boot changes. It aliases the input: unique per
	// node start, it is compared with the stored boot, not interned.
	Boot  []byte
	Batch []envelopeItem
	Ack   []uint64
	// FloorCh[i] → FloorSeq[i]: per channel, the lowest sequence number
	// still live in the sender's outbox (or the next sequence to be assigned
	// when the channel drained). The receiver uses them to skip sequence
	// gaps left by the max-age purge or by acks that predate its own reboot.
	FloorCh  []string
	FloorSeq []uint64
}

type envelopeItem struct {
	ID      uint64
	Seq     uint64
	Channel string
	// Pub is the number of the local publication the item relays, from
	// which its trace derives (obs.PublicationTrace(sender, Pub)); 0 when
	// the item carries its trace whole in Trace.
	Pub uint64
	// Trace is the message's causal trace ID (obs.TraceID), 0 when
	// untraced. A publication item travels without it: decoding leaves it
	// 0, and the receiver fills it in for the items it delivers.
	Trace uint64
	Body  []byte // msg binary codec
}

// unframe verifies and strips the frame check.
func unframe(b []byte) ([]byte, error) {
	if len(b) < len(frameHeader) {
		return nil, errors.New("transport: malformed frame")
	}
	body := b[len(frameHeader):]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(b) {
		return nil, errors.New("transport: checksum mismatch")
	}
	return body, nil
}

// envScratch is the reusable decode and receive storage for one inbound
// payload: the decoded batch, acks and floors land in recycled slices, and
// link.unpack and link.receive leave their outputs here. Contents are only
// valid until release; the core copies anything it retains (held items are
// copied by value into the hold map).
type envScratch struct {
	tab      chanTable
	batch    []envelopeItem
	shapes   [][]byte // parallel to batch: a shaped item's keys, nil for one sent whole
	vals     []byte   // what a map sent whole would have been shaped to
	ack      []uint64
	floorCh  []string
	floorSeq []uint64

	env     envelope // what link.unpack decoded
	bad     bool     // corrupt or forged: nothing to apply
	ackIDs  []uint64
	touched []string

	// Outputs of link.receive.
	deliver []envelopeItem // in order
	msgs    []msg.Raw      // parallel to deliver; zero for a body no encoder wrote
	wire    []byte         // the framed ack envelope; empty when nothing is acked
}

// release drops what views the payload the scratch last held — the item
// bodies, the boot ID, the messages — so a kept scratch does not keep that
// payload alive. The batch is cleared to its capacity: a decode that failed
// part-way wrote items past the length it left.
func (sc *envScratch) release() {
	clear(sc.batch[:cap(sc.batch)])
	clear(sc.shapes[:cap(sc.shapes)])
	clear(sc.tab[:cap(sc.tab)])
	clear(sc.deliver)
	clear(sc.msgs)
	sc.env = envelope{}
}

// decodeEnvelope parses an unframed envelope into sc's recycled storage.
// Item bodies alias the input buffer (zero-copy) when it is the receive
// path's own, never recycled, so held-back items keep it alive exactly as
// long as needed. A lent buffer is the messenger's again once the receive
// returns: its bodies are copied out. Those copies and the bodies shaped
// items rebuild share one slab of exactly their size, allocated only once
// the whole envelope has parsed. From and the channels are interned — a
// fleet repeats the same identifiers forever; the boot ID, new with every
// node start, aliases the input, and the receive copies what it keeps of
// it. Claimed counts and lengths are validated against the remaining bytes
// before any allocation.
func decodeEnvelope(b []byte, sc *envScratch, lent bool) (envelope, error) {
	if len(b) == 0 || b[0] != envMagic {
		return envelope{}, fmt.Errorf("%w: not an envelope", errEnvelope)
	}
	b = b[1:]
	var env envelope
	var err error
	if env.From, b, err = readUvStr(b); err != nil {
		return envelope{}, err
	}
	if env.Boot, b, err = readUvBytes(b); err != nil {
		return envelope{}, err
	}
	tab := sc.tab[:0]
	n, b, err := readCount(b, 1)
	if err != nil {
		return envelope{}, err
	}
	for i := uint64(0); i < n; i++ {
		var name string
		if name, b, err = readUvStr(b); err != nil {
			return envelope{}, err
		}
		tab = append(tab, chanEntry{name: name})
	}
	sc.tab = tab
	if n, b, err = readCount(b, minItemSize); err != nil {
		return envelope{}, err
	}
	rebuilt, copied := 0, 0
	if n > 0 {
		// The scratch keeps what it grows to, even when the envelope is
		// refused part-way.
		sc.batch, sc.shapes = sc.batch[:0], sc.shapes[:0]
		var id, off uint64
		for i := uint64(0); i < n; i++ {
			var it envelopeItem
			var delta uint64
			if delta, b, err = readUv(b); err != nil {
				return envelope{}, err
			}
			id += delta
			it.ID = id
			var kind uint64
			if kind, b, err = readUv(b); err != nil {
				return envelope{}, err
			}
			var c int
			if c, err = checkIndex(kind>>2, tab); err != nil {
				return envelope{}, err
			}
			ch := &tab[c]
			it.Channel = ch.name
			var seqDelta int64
			if seqDelta, b, err = readV(b); err != nil {
				return envelope{}, err
			}
			it.Seq = ch.seq + uint64(seqDelta)
			ch.seq = it.Seq
			if kind&1 == 0 {
				var offDelta int64
				if offDelta, b, err = readV(b); err != nil {
					return envelope{}, err
				}
				off += uint64(offDelta)
				if it.Pub = id + off; it.Pub == 0 {
					return envelope{}, fmt.Errorf("%w: publication number 0", errEnvelope)
				}
			} else {
				if len(b) < 8 {
					return envelope{}, fmt.Errorf("%w: truncated trace", errEnvelope)
				}
				it.Trace = binary.LittleEndian.Uint64(b)
				b = b[8:]
			}
			if it.Body, b, err = readUvBytes(b); err != nil {
				return envelope{}, err
			}
			var shape []byte
			if kind&2 != 0 {
				size, err := msg.ShapedLen(ch.shape, it.Body)
				if err != nil {
					return envelope{}, fmt.Errorf("%w: shaped item: %v", errEnvelope, err)
				}
				if rebuilt += size; rebuilt > maxRebuilt {
					return envelope{}, fmt.Errorf("%w: shaped items rebuild more than %d bytes", errEnvelope, maxRebuilt)
				}
				shape = ch.shape
			} else {
				if rebuilt+len(it.Body) <= maxRebuilt {
					var same bool
					if sc.vals, same = msg.AppendValues(sc.vals[:0], ch.shape, it.Body); same {
						return envelope{}, fmt.Errorf("%w: a map sent whole that should have been shaped", errEnvelope)
					}
				}
				ch.shape = it.Body
				if lent {
					copied += len(it.Body)
				}
			}
			sc.batch, sc.shapes = append(sc.batch, it), append(sc.shapes, shape)
		}
		env.Batch = sc.batch
	}
	if n, b, err = readCount(b, 1); err != nil {
		return envelope{}, err
	}
	if n > 0 {
		ack := sc.ack[:0]
		var id uint64
		for i := uint64(0); i < n; i++ {
			var delta int64
			if delta, b, err = readV(b); err != nil {
				return envelope{}, err
			}
			id += uint64(delta)
			ack = append(ack, id)
		}
		sc.ack = ack
		env.Ack = ack
	}
	if n, b, err = readCount(b, 2); err != nil {
		return envelope{}, err
	}
	if n > 0 {
		floorCh, floorSeq := sc.floorCh[:0], sc.floorSeq[:0]
		for i := uint64(0); i < n; i++ {
			var c int
			var f uint64
			if c, b, err = readIndex(b, tab); err != nil {
				return envelope{}, err
			}
			if f, b, err = readUv(b); err != nil {
				return envelope{}, err
			}
			floorCh, floorSeq = append(floorCh, tab[c].name), append(floorSeq, f)
		}
		sc.floorCh, sc.floorSeq = floorCh, floorSeq
		env.FloorCh, env.FloorSeq = floorCh, floorSeq
	}
	if len(b) != 0 {
		return envelope{}, fmt.Errorf("%w: %d bytes of trailing data", errEnvelope, len(b))
	}
	if rebuilt+copied > 0 {
		fillSlab(env.Batch, sc.shapes, lent, rebuilt+copied)
	}
	return env, nil
}

// fillSlab moves the bodies of batch that must not alias the payload into
// one slab of size bytes: the shaped items' rebuilt messages, and when the
// payload is lent every other body too.
func fillSlab(batch []envelopeItem, shapes [][]byte, lent bool, size int) {
	slab := make([]byte, 0, size)
	for i := range batch {
		it := &batch[i]
		start := len(slab)
		switch {
		case shapes[i] != nil:
			slab = msg.AppendShaped(slab, shapes[i], it.Body)
		case lent:
			slab = append(slab, it.Body...)
		default:
			continue
		}
		it.Body = slab[start:len(slab):len(slab)]
	}
}

func readUv(b []byte) (uint64, []byte, error) {
	v, sz := binary.Uvarint(b)
	if sz <= 0 {
		return 0, nil, fmt.Errorf("%w: bad varint", errEnvelope)
	}
	return v, b[sz:], nil
}

func readV(b []byte) (int64, []byte, error) {
	v, sz := binary.Varint(b)
	if sz <= 0 {
		return 0, nil, fmt.Errorf("%w: bad varint", errEnvelope)
	}
	return v, b[sz:], nil
}

// readIndex reads a channel index and rejects one past the table.
func readIndex(b []byte, tab chanTable) (int, []byte, error) {
	c, rest, err := readUv(b)
	if err != nil {
		return 0, nil, err
	}
	i, err := checkIndex(c, tab)
	return i, rest, err
}

// checkIndex rejects a channel index past the table.
func checkIndex(c uint64, tab chanTable) (int, error) {
	if c >= uint64(len(tab)) {
		return 0, fmt.Errorf("%w: channel index %d past a table of %d", errEnvelope, c, len(tab))
	}
	return int(c), nil
}

// readCount reads a uvarint element count and rejects it when even
// minElemSize bytes per element would overrun the remaining input.
func readCount(b []byte, minElemSize uint64) (uint64, []byte, error) {
	n, rest, err := readUv(b)
	if err != nil {
		return 0, nil, err
	}
	if n > uint64(len(rest))/minElemSize {
		return 0, nil, fmt.Errorf("%w: count %d exceeds input", errEnvelope, n)
	}
	return n, rest, nil
}

// readUvStr reads a length-prefixed string, interning the copy: envelope
// strings are drawn from a fleet's small, endlessly repeated identifier set.
func readUvStr(b []byte) (string, []byte, error) {
	s, rest, err := readUvBytes(b)
	if err != nil {
		return "", nil, err
	}
	return msg.Intern(s), rest, nil
}

// readUvBytes reads a length-prefixed byte string, aliasing the input.
func readUvBytes(b []byte) ([]byte, []byte, error) {
	n, rest, err := readUv(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("%w: string length %d exceeds input", errEnvelope, n)
	}
	return rest[:n], rest[n:], nil
}
