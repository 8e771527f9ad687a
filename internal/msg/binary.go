package msg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"unicode/utf8"
)

// Compact binary message codec: the one wire format for message bodies
// (transport and fleet fabric). JSON remains the interchange format for
// everything human-facing (/metrics.json, CSV export, logs, JSON.parse in
// scripts) and for fuzz cross-checks; the two codecs are value-equivalent by
// construction — both coerce NaN/±Inf to null and both treat integral floats
// |x| < 1e15 as integers.
//
// Layout: one tag byte per value, varint lengths, no padding.
//
//	tag 0x00  null
//	tag 0x01  false
//	tag 0x02  true
//	tag 0x03  float64     8 bytes IEEE 754, big-endian
//	tag 0x04  integer     zigzag varint (integral floats, |x| < 1e15)
//	tag 0x05  string      uvarint byte length + UTF-8 bytes (invalid UTF-8 is
//	                      written as U+FFFD)
//	tag 0x06  array       uvarint count + count values
//	tag 0x07  map         uvarint count + count × (uvarint key len + key bytes + value),
//	                      keys sorted lexicographically (deterministic bytes)
//
// Lengths and counts are minimal uvarints. What the encoder writes is the
// canonical form a Raw holds (raw.go); ParseRaw accepts nothing else.
//
// decodeBinary builds a tree and copies the strings it keeps out of the
// input; Raw.Map builds one that shares the Raw's immutable bytes. Hostile
// input cannot over-allocate: every claimed length and count is bounded by
// the bytes actually remaining in the buffer before anything is allocated,
// and nesting depth is capped at maxDepth.

const (
	tagNull   = 0x00
	tagFalse  = 0x01
	tagTrue   = 0x02
	tagFloat  = 0x03
	tagInt    = 0x04
	tagString = 0x05
	tagArray  = 0x06
	tagMap    = 0x07
)

// maxDepth bounds decode recursion so hostile deeply-nested input cannot
// exhaust the stack (encoding/json draws the same line for DecodeJSON).
const maxDepth = 10000

// errBinary reports malformed binary codec input.
var errBinary = errors.New("msg: binary decode")

// EncodeBinary serializes a message value to the binary codec. The returned
// slice is freshly allocated and owned by the caller; hot paths that reuse
// buffers should call AppendBinary instead. It is the one allocation:
// binarySize measures the encoding first, so the buffer is made at its
// exact size.
func EncodeBinary(v Value) ([]byte, error) {
	return AppendBinary(make([]byte, 0, binarySize(v)), v)
}

// binarySize returns the length of v's binary encoding, walking v as
// AppendBinary does but writing nothing. The figure for a value AppendBinary
// refuses means nothing.
func binarySize(v Value) int {
	switch x := v.(type) {
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 1
		}
		if x == math.Trunc(x) && math.Abs(x) < 1e15 {
			i := int64(x)
			return 1 + uvarintLen(uint64(i<<1)^uint64(i>>63))
		}
		return 9
	case string:
		n := len(CanonicalKey(x))
		return 1 + uvarintLen(uint64(n)) + n
	case []Value:
		n := 1 + uvarintLen(uint64(len(x)))
		for _, e := range x {
			n += binarySize(e)
		}
		return n
	case Map:
		n := 1 + uvarintLen(uint64(len(x)))
		for k, e := range x {
			k = CanonicalKey(k)
			n += uvarintLen(uint64(len(k))) + len(k) + binarySize(e)
		}
		return n
	case Raw:
		return len(x.Bytes())
	}
	return 1 // nil and bool
}

// uvarintLen is the length of binary.AppendUvarint's encoding of u.
func uvarintLen(u uint64) int { return (bits.Len64(u|1) + 6) / 7 }

// AppendBinary appends the binary encoding of v to dst and returns the
// extended slice. This is the allocation-free primitive under EncodeBinary:
// with a pre-sized dst it performs no heap allocation, for maps of up to 16
// keys too (their sorted-key scratch is a stack array).
func AppendBinary(dst []byte, v Value) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, tagNull), nil
	case bool:
		if x {
			return append(dst, tagTrue), nil
		}
		return append(dst, tagFalse), nil
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			// Mirror the JSON encoder: JSON has no NaN/Inf, so both codecs
			// agree the value is null.
			return append(dst, tagNull), nil
		}
		if x == math.Trunc(x) && math.Abs(x) < 1e15 {
			dst = append(dst, tagInt)
			return binary.AppendVarint(dst, int64(x)), nil
		}
		dst = append(dst, tagFloat)
		return binary.BigEndian.AppendUint64(dst, math.Float64bits(x)), nil
	case string:
		if !utf8.ValidString(x) {
			x = fixUTF8([]byte(x))
		}
		dst = append(dst, tagString)
		dst = binary.AppendUvarint(dst, uint64(len(x)))
		return append(dst, x...), nil
	case []Value:
		dst = AppendArrayHeader(dst, len(x))
		var err error
		for _, e := range x {
			if dst, err = AppendBinary(dst, e); err != nil {
				return nil, err
			}
		}
		return dst, nil
	case Map:
		// One walk collects the entries under their canonical keys into
		// scratch on this call's stack (a map of more entries than it holds
		// grows it on the heap), and they are written in key order. Two
		// keys that become equal after UTF-8 repair cannot both be kept, so
		// such a map does not encode.
		var stack [16]mapEntry
		entries := stack[:0]
		for k, v := range x {
			entries = append(entries, mapEntry{CanonicalKey(k), v})
		}
		slices.SortFunc(entries, func(a, b mapEntry) int { return strings.Compare(a.key, b.key) })
		dst = AppendMapHeader(dst, len(entries))
		var err error
		for i := range entries {
			if i > 0 && entries[i].key == entries[i-1].key {
				return nil, fmt.Errorf("%w: keys equal after UTF-8 repair: %q", ErrUnsupportedValue, entries[i].key)
			}
			dst = AppendKey(dst, entries[i].key)
			if dst, err = AppendBinary(dst, entries[i].val); err != nil {
				return nil, err
			}
		}
		return dst, nil
	case Raw:
		return append(dst, x.Bytes()...), nil
	default:
		return nil, fmt.Errorf("%w: %T", ErrUnsupportedValue, v)
	}
}

// AppendMapHeader appends the head of a map of n entries. What follows it
// must be n keys, each written with AppendKey and followed by its value, in
// increasing byte order of the keys and none repeated. With AppendArrayHeader,
// AppendKey and AppendBinary for the scalars, it lets a caller that holds a
// message in a form of its own write the canonical encoding without building
// a tree; ParseRaw makes a message of what it wrote.
func AppendMapHeader(dst []byte, n int) []byte {
	return binary.AppendUvarint(append(dst, tagMap), uint64(n))
}

// AppendArrayHeader appends the head of an array of n elements, which must
// follow it.
func AppendArrayHeader(dst []byte, n int) []byte {
	return binary.AppendUvarint(append(dst, tagArray), uint64(n))
}

// AppendKey appends a map key. k must be a CanonicalKey.
func AppendKey(dst []byte, k string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(k))), k...)
}

// CanonicalKey returns k as a map key is encoded: with invalid UTF-8
// replaced by U+FFFD, as in a string, and k itself when it is valid. Two keys
// of one map with the same canonical key cannot both be encoded.
func CanonicalKey(k string) string {
	if utf8.ValidString(k) {
		return k
	}
	return fixUTF8([]byte(k))
}

// DecodeFrozen is ParseRaw for callers that want a Value: it validates data
// as the receive path does and returns it as a Raw, building no tree. The
// Raw RETAINS data — the caller must not modify the buffer after the call.
func DecodeFrozen(data []byte) (Value, error) {
	r, err := ParseRaw(data)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// mapEntry is one map entry as AppendBinary writes it: under its canonical
// key.
type mapEntry struct {
	key string
	val Value
}

func decodeBinary(data []byte, depth int) (Value, []byte, error) {
	if depth > maxDepth {
		return nil, nil, fmt.Errorf("%w: nesting too deep", errBinary)
	}
	if len(data) == 0 {
		return nil, nil, fmt.Errorf("%w: unexpected end of input", errBinary)
	}
	tag := data[0]
	data = data[1:]
	switch tag {
	case tagNull:
		return nil, data, nil
	case tagFalse:
		return false, data, nil
	case tagTrue:
		return true, data, nil
	case tagFloat:
		if len(data) < 8 {
			return nil, nil, fmt.Errorf("%w: truncated float", errBinary)
		}
		f := math.Float64frombits(binary.BigEndian.Uint64(data))
		if math.IsNaN(f) || math.IsInf(f, 0) {
			// The encoder never emits NaN/Inf (both codecs coerce them to
			// null); hostile bits get the same treatment on the way in.
			return nil, data[8:], nil
		}
		return BoxFloat(f), data[8:], nil
	case tagInt:
		n, sz := binary.Varint(data)
		if sz <= 0 {
			return nil, nil, fmt.Errorf("%w: bad varint", errBinary)
		}
		return BoxFloat(float64(n)), data[sz:], nil
	case tagString:
		s, rest, err := decodeBinaryStr(data)
		if err != nil {
			return nil, nil, err
		}
		return s, rest, nil
	case tagArray:
		n, sz := binary.Uvarint(data)
		if sz <= 0 {
			return nil, nil, fmt.Errorf("%w: bad array count", errBinary)
		}
		data = data[sz:]
		// Every element takes at least one byte: a count beyond the bytes
		// remaining is a lie, reject before allocating.
		if n > uint64(len(data)) {
			return nil, nil, fmt.Errorf("%w: array count %d exceeds input", errBinary, n)
		}
		out := make([]Value, 0, n)
		for i := uint64(0); i < n; i++ {
			var (
				e   Value
				err error
			)
			e, data, err = decodeBinary(data, depth+1)
			if err != nil {
				return nil, nil, err
			}
			out = append(out, e)
		}
		return out, data, nil
	case tagMap:
		n, sz := binary.Uvarint(data)
		if sz <= 0 {
			return nil, nil, fmt.Errorf("%w: bad map count", errBinary)
		}
		data = data[sz:]
		// Every entry takes at least two bytes (key length + value tag).
		if n > uint64(len(data))/2 {
			return nil, nil, fmt.Errorf("%w: map count %d exceeds input", errBinary, n)
		}
		out := make(Map, n)
		for i := uint64(0); i < n; i++ {
			var (
				k   string
				v   Value
				err error
			)
			k, data, err = decodeBinaryStr(data)
			if err != nil {
				return nil, nil, err
			}
			v, data, err = decodeBinary(data, depth+1)
			if err != nil {
				return nil, nil, err
			}
			out[k] = v
		}
		return out, data, nil
	default:
		return nil, nil, fmt.Errorf("%w: unknown tag 0x%02x", errBinary, tag)
	}
}

// decodeBinaryStr reads uvarint length + bytes: a string value or a map key,
// the one copy the decoder makes, since it must outlive the input buffer.
// Invalid UTF-8 is coerced to U+FFFD exactly like encoding/json, so the
// binary and JSON codecs can never disagree about string content.
func decodeBinaryStr(data []byte) (string, []byte, error) {
	raw, rest, err := decodeBinaryRaw(data)
	if err != nil {
		return "", nil, err
	}
	if !utf8.Valid(raw) {
		return fixUTF8(raw), rest, nil
	}
	return string(raw), rest, nil
}

// decodeBinaryRaw bounds-checks a uvarint length prefix and returns the raw
// byte span plus the remainder.
func decodeBinaryRaw(data []byte) (raw, rest []byte, err error) {
	n, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil, nil, fmt.Errorf("%w: bad string length", errBinary)
	}
	data = data[sz:]
	if n > uint64(len(data)) {
		return nil, nil, fmt.Errorf("%w: string length %d exceeds input", errBinary, n)
	}
	return data[:n], data[n:], nil
}

// fixUTF8 copies s replacing invalid UTF-8 sequences with U+FFFD, matching
// encoding/json's unquote behavior.
func fixUTF8(s []byte) string {
	buf := make([]byte, 0, len(s)+3)
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRune(s[i:])
		if r == utf8.RuneError && size <= 1 {
			buf = utf8.AppendRune(buf, utf8.RuneError)
			i++
			continue
		}
		buf = append(buf, s[i:i+size]...)
		i += size
	}
	return string(buf)
}
