package transport

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"

	"pogo/internal/msg"
)

// Envelope codec and framing: the zero-garbage half of the wire path.
// There is one envelope format, and both ends of every connection speak it.
//
// A switchboard payload is a 9-byte frame header — the CRC32 (IEEE) of
// everything after it as 8 lowercase hex digits, then ':' — followed by the
// envelope:
//
//	magic     1 byte, envMagic
//	from      uvarint length + bytes
//	boot      uvarint length + bytes
//	batch     uvarint count, then per item:
//	            id uvarint · seq uvarint · channel (uvarint len + bytes)
//	            · trace uvarint (obs.TraceID, 0 = untraced)
//	            · body (uvarint len + bytes, msg binary codec)
//	acks      uvarint count + count uvarints
//	floors    uvarint count + count × (channel uvarint len + bytes,
//	            floor uvarint), channels sorted (deterministic bytes)
//
// Anything else — a bad checksum, another first byte, a length or count that
// overruns the input, trailing bytes — is rejected and counted in
// transport_corrupt_dropped_total; the sender retransmits.
//
// Decode recycles its storage: an envScratch carries the batch, ack, and
// floor storage from envelope to envelope, and the envelope's From and
// Channel strings are interned — sensor fleets repeat the same few
// identifiers forever, so in steady state decoding an envelope allocates
// nothing beyond what its payload bodies need.

// envMagic is the first byte of every envelope: 0xB0 | format version.
const envMagic = 0xB2

var errEnvelope = errors.New("transport: malformed envelope")

// frameHeader is the placeholder the encoder reserves at the front of a
// buffer; frameInto overwrites it with the real CRC32 header.
var frameHeader = [9]byte{'0', '0', '0', '0', '0', '0', '0', '0', ':'}

// frameInto fills the reserved 9-byte header of buf ("%08x:" CRC32 of the
// body at buf[9:]) in place.
func frameInto(buf []byte) []byte {
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(buf[9:]))
	hex.Encode(buf[:8], crc[:])
	buf[8] = ':'
	return buf
}

// appendEnvelope appends the encoding of one envelope to dst. Floors travel
// as parallel (channel, seq) slices, as both ends keep them, and floorCh
// must already be sorted.
func appendEnvelope(dst []byte, from, boot string, batch []envelopeItem, ack []uint64, floorCh []string, floorSeq []uint64) []byte {
	dst = append(dst, envMagic)
	dst = appendUvStr(dst, from)
	dst = appendUvStr(dst, boot)
	dst = binary.AppendUvarint(dst, uint64(len(batch)))
	for i := range batch {
		it := &batch[i]
		dst = binary.AppendUvarint(dst, it.ID)
		dst = binary.AppendUvarint(dst, it.Seq)
		dst = appendUvStr(dst, it.Channel)
		dst = binary.AppendUvarint(dst, it.Trace)
		dst = binary.AppendUvarint(dst, uint64(len(it.Body)))
		dst = append(dst, it.Body...)
	}
	dst = binary.AppendUvarint(dst, uint64(len(ack)))
	for _, id := range ack {
		dst = binary.AppendUvarint(dst, id)
	}
	dst = binary.AppendUvarint(dst, uint64(len(floorCh)))
	for i, ch := range floorCh {
		dst = appendUvStr(dst, ch)
		dst = binary.AppendUvarint(dst, floorSeq[i])
	}
	return dst
}

func appendUvStr(dst []byte, s string) []byte {
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
	Trace   uint64 // the message's causal trace ID (obs.TraceID), 0 when untraced
	Body    []byte // msg binary codec
}

// unframe verifies and strips the CRC32 header.
func unframe(b []byte) ([]byte, error) {
	var want [4]byte
	if len(b) < 9 || b[8] != ':' {
		return nil, errors.New("transport: malformed frame")
	}
	if _, err := hex.Decode(want[:], b[:8]); err != nil {
		return nil, errors.New("transport: bad frame header")
	}
	if crc32.ChecksumIEEE(b[9:]) != binary.BigEndian.Uint32(want[:]) {
		return nil, errors.New("transport: checksum mismatch")
	}
	return b[9:], nil
}

// envScratch is the reusable decode and receive storage for one inbound
// payload: the decoded batch, acks and floors land in recycled slices, and
// link.unpack and link.receive leave their outputs here. Contents are only valid until the
// next receive with the same scratch; the core copies anything it retains
// (held items are copied by value into the hold map).
type envScratch struct {
	batch    []envelopeItem
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

// decodeEnvelope parses an unframed envelope into sc's recycled storage. Item
// bodies alias the input buffer (zero-copy): the buffer is GC-owned by the
// receive path, never pooled, so held-back items keep it alive exactly as
// long as needed. From and the channels are interned — a fleet repeats the
// same identifiers forever; the boot ID, new with every node start, aliases
// the input like the bodies. Claimed counts and lengths are
// validated against the remaining bytes before any allocation.
func decodeEnvelope(b []byte, sc *envScratch) (envelope, error) {
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
	n, b, err := readCount(b, 5) // id+seq+chlen+trace+bodylen ≥ 5 bytes per item
	if err != nil {
		return envelope{}, err
	}
	if n > 0 {
		batch := sc.batch[:0]
		for i := uint64(0); i < n; i++ {
			var it envelopeItem
			if it.ID, b, err = readUv(b); err != nil {
				return envelope{}, err
			}
			if it.Seq, b, err = readUv(b); err != nil {
				return envelope{}, err
			}
			if it.Channel, b, err = readUvStr(b); err != nil {
				return envelope{}, err
			}
			if it.Trace, b, err = readUv(b); err != nil {
				return envelope{}, err
			}
			var bl uint64
			if bl, b, err = readUv(b); err != nil {
				return envelope{}, err
			}
			if bl > uint64(len(b)) {
				return envelope{}, fmt.Errorf("%w: body length %d exceeds input", errEnvelope, bl)
			}
			it.Body = b[:bl]
			b = b[bl:]
			batch = append(batch, it)
		}
		sc.batch = batch
		env.Batch = batch
	}
	if n, b, err = readCount(b, 1); err != nil {
		return envelope{}, err
	}
	if n > 0 {
		ack := sc.ack[:0]
		for i := uint64(0); i < n; i++ {
			var id uint64
			if id, b, err = readUv(b); err != nil {
				return envelope{}, err
			}
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
			var ch string
			var f uint64
			if ch, b, err = readUvStr(b); err != nil {
				return envelope{}, err
			}
			if f, b, err = readUv(b); err != nil {
				return envelope{}, err
			}
			floorCh, floorSeq = append(floorCh, ch), append(floorSeq, f)
		}
		sc.floorCh, sc.floorSeq = floorCh, floorSeq
		env.FloorCh, env.FloorSeq = floorCh, floorSeq
	}
	if len(b) != 0 {
		return envelope{}, fmt.Errorf("%w: %d bytes of trailing data", errEnvelope, len(b))
	}
	return env, nil
}

func readUv(b []byte) (uint64, []byte, error) {
	v, sz := binary.Uvarint(b)
	if sz <= 0 {
		return 0, nil, fmt.Errorf("%w: bad varint", errEnvelope)
	}
	return v, b[sz:], nil
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
