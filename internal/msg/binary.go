package msg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
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
// DecodeBinary builds a tree and copies the strings it keeps out of the
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

// ErrBinary reports malformed binary codec input.
var ErrBinary = errors.New("msg: binary decode")

// encBufPool recycles encode buffers so steady-state encoding is
// allocation-free. Buffers are returned by EncodeBinary before copying out;
// external callers that want pooling should use AppendBinary with their own
// buffer discipline (the transport does).
var encBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 1024); return &b },
}

// EncodeBinary serializes a message value to the binary codec. The returned
// slice is freshly allocated and owned by the caller; hot paths that reuse
// buffers should call AppendBinary instead.
func EncodeBinary(v Value) ([]byte, error) {
	bp := encBufPool.Get().(*[]byte)
	buf, err := AppendBinary((*bp)[:0], v)
	if err != nil {
		// AppendBinary returns a nil slice on error: keep the buffer the
		// pool slot already had instead of clobbering it with nil, which
		// would silently re-allocate on every future Get.
		encBufPool.Put(bp)
		return nil, err
	}
	out := make([]byte, len(buf))
	copy(out, buf)
	*bp = buf[:0]
	encBufPool.Put(bp)
	return out, nil
}

// AppendBinary appends the binary encoding of v to dst and returns the
// extended slice. This is the allocation-free primitive under EncodeBinary:
// with a pre-sized dst it performs no heap allocation for scalar payloads
// and only the sorted-key scratch for maps.
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
		dst = append(dst, tagArray)
		dst = binary.AppendUvarint(dst, uint64(len(x)))
		var err error
		for _, e := range x {
			if dst, err = AppendBinary(dst, e); err != nil {
				return nil, err
			}
		}
		return dst, nil
	case Map:
		// Sorted-key scratch comes from a pool and is held until the
		// iteration finishes — nested maps Get their own scratch because
		// this one isn't Put back yet.
		sp := keysPool.Get().(*[]string)
		keys := (*sp)[:0]
		repair := false
		for k := range x {
			keys = append(keys, k)
			repair = repair || !utf8.ValidString(k)
		}
		*sp = keys[:0]
		if repair {
			keysPool.Put(sp)
			return appendRepairedMap(dst, x)
		}
		sort.Strings(keys)
		dst = append(dst, tagMap)
		dst = binary.AppendUvarint(dst, uint64(len(keys)))
		var err error
		for _, k := range keys {
			dst = binary.AppendUvarint(dst, uint64(len(k)))
			dst = append(dst, k...)
			if dst, err = AppendBinary(dst, x[k]); err != nil {
				break
			}
		}
		clear(keys)
		keysPool.Put(sp)
		if err != nil {
			return nil, err
		}
		return dst, nil
	case Raw:
		return append(dst, x.Bytes()...), nil
	default:
		return nil, fmt.Errorf("%w: %T", ErrUnsupportedValue, v)
	}
}

// keysPool recycles the sorted-key scratch slices map encoding needs, so a
// steady-state encode of nested maps allocates nothing.
var keysPool = sync.Pool{
	New: func() any { s := make([]string, 0, 16); return &s },
}

// DecodeBinary parses a binary-codec value. It rejects trailing data, depth
// beyond maxDepth, and any length or count exceeding the bytes that
// remain — malformed or hostile input errors out before large allocations.
func DecodeBinary(data []byte) (Value, error) {
	v, rest, err := decodeBinary(data, 0)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d bytes of trailing data", ErrBinary, len(rest))
	}
	return v, nil
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

// appendRepairedMap encodes a map holding keys that are not valid UTF-8,
// each replaced as the string encoder replaces it. Two keys that become
// equal cannot both be kept, so such a map does not encode.
func appendRepairedMap(dst []byte, x Map) ([]byte, error) {
	fixed := make(Map, len(x))
	for k, v := range x {
		if !utf8.ValidString(k) {
			k = fixUTF8([]byte(k))
		}
		if _, dup := fixed[k]; dup {
			return nil, fmt.Errorf("%w: keys equal after UTF-8 repair: %q", ErrUnsupportedValue, k)
		}
		fixed[k] = v
	}
	return AppendBinary(dst, fixed)
}

func decodeBinary(data []byte, depth int) (Value, []byte, error) {
	if depth > maxDepth {
		return nil, nil, fmt.Errorf("%w: nesting too deep", ErrBinary)
	}
	if len(data) == 0 {
		return nil, nil, fmt.Errorf("%w: unexpected end of input", ErrBinary)
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
			return nil, nil, fmt.Errorf("%w: truncated float", ErrBinary)
		}
		f := math.Float64frombits(binary.BigEndian.Uint64(data))
		if math.IsNaN(f) || math.IsInf(f, 0) {
			// The encoder never emits NaN/Inf (both codecs coerce them to
			// null); hostile bits get the same treatment on the way in.
			return nil, data[8:], nil
		}
		return boxFloat(f), data[8:], nil
	case tagInt:
		n, sz := binary.Varint(data)
		if sz <= 0 {
			return nil, nil, fmt.Errorf("%w: bad varint", ErrBinary)
		}
		return boxFloat(float64(n)), data[sz:], nil
	case tagString:
		s, rest, err := decodeBinaryStr(data)
		if err != nil {
			return nil, nil, err
		}
		return s, rest, nil
	case tagArray:
		n, sz := binary.Uvarint(data)
		if sz <= 0 {
			return nil, nil, fmt.Errorf("%w: bad array count", ErrBinary)
		}
		data = data[sz:]
		// Every element takes at least one byte: a count beyond the bytes
		// remaining is a lie, reject before allocating.
		if n > uint64(len(data)) {
			return nil, nil, fmt.Errorf("%w: array count %d exceeds input", ErrBinary, n)
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
			return nil, nil, fmt.Errorf("%w: bad map count", ErrBinary)
		}
		data = data[sz:]
		// Every entry takes at least two bytes (key length + value tag).
		if n > uint64(len(data))/2 {
			return nil, nil, fmt.Errorf("%w: map count %d exceeds input", ErrBinary, n)
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
		return nil, nil, fmt.Errorf("%w: unknown tag 0x%02x", ErrBinary, tag)
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
		return nil, nil, fmt.Errorf("%w: bad string length", ErrBinary)
	}
	data = data[sz:]
	if n > uint64(len(data)) {
		return nil, nil, fmt.Errorf("%w: string length %d exceeds input", ErrBinary, n)
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
