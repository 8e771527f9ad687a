package msg

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"unsafe"
)

// Shaped maps. A run of messages with the same keys, a sensor's readings,
// need not spell its keys in every message: a map whose keys are exactly
// those of a shape, an earlier map's encoding, can travel as its values
// alone, in key order, and the keys are put back from the shape. The
// transport sends an envelope's items this way (DESIGN.md, "Wire format");
// these three calls are all it knows of the codec.
//
// The walk checks bounds, not form: a shape or a body that is not a map, or
// that overruns its bytes, never matches, and values that are not one value
// per key never rebuild. Whatever AppendShaped rebuilds is validated with
// ParseRaw, like any other body, so a message no encoder wrote is refused
// there.

// AppendValues appends body's values, in key order, to dst and reports true
// when body and shape are both map encodings with the same keys, byte for
// byte; otherwise it returns dst unchanged and false.
func AppendValues(dst, shape, body []byte) ([]byte, bool) {
	s, n, ok := openMap(shape)
	b, m, ok2 := openMap(body)
	if !ok || !ok2 || n != m {
		return dst, false
	}
	start := len(dst)
	for ; n > 0; n-- {
		var ks, kb, v []byte
		if ks, _, s, ok = nextEntry(s); !ok {
			return dst[:start], false
		}
		if kb, v, b, ok = nextEntry(b); !ok || !bytes.Equal(ks, kb) {
			return dst[:start], false
		}
		dst = append(dst, v...)
	}
	if len(s) != 0 || len(b) != 0 {
		return dst[:start], false
	}
	return dst, true
}

// ShapedLen returns the length of the map AppendShaped rebuilds from shape's
// keys and values, allocating nothing. It fails unless shape is a map and
// values holds exactly one value per key.
func ShapedLen(shape, values []byte) (int, error) {
	s, n, ok := openMap(shape)
	if !ok {
		return 0, fmt.Errorf("%w: no map to take keys from", errBinary)
	}
	size := len(shape) - len(s) + len(values)
	for i := 0; i < n; i++ {
		entry := s
		_, v, rest, ok := nextEntry(s)
		if !ok {
			return 0, fmt.Errorf("%w: no map to take keys from", errBinary)
		}
		size += len(entry) - len(rest) - len(v)
		s = rest
		k := skipValue(values, 1)
		if k == 0 {
			return 0, fmt.Errorf("%w: %d values for %d keys", errBinary, i, n)
		}
		values = values[k:]
	}
	if len(s) != 0 {
		return 0, fmt.Errorf("%w: no map to take keys from", errBinary)
	}
	if len(values) != 0 {
		return 0, fmt.Errorf("%w: more values than the %d keys", errBinary, n)
	}
	return size, nil
}

// AppendShaped appends the map with shape's keys and values: the body
// AppendValues took the values of. Call it only with a shape and values
// ShapedLen accepted; it walks them without checking again.
func AppendShaped(dst, shape, values []byte) []byte {
	s := walker{base: unsafe.Pointer(&shape[0]), off: 1}
	v := walker{base: unsafe.Pointer(unsafe.SliceData(values))}
	n := s.uvarint()
	dst = append(dst, s.span(0)...)
	for ; n > 0; n-- {
		key := s.off
		s.off += s.uvarint()
		dst = append(dst, s.span(key)...)
		s.skip()
		start := v.off
		v.skip()
		dst = append(dst, v.span(start)...)
	}
	return dst
}

// openMap reads the head of a map encoding: the rest after its count, and
// the count, which the rest has room for.
func openMap(b []byte) ([]byte, int, bool) {
	if len(b) == 0 || b[0] != tagMap {
		return nil, 0, false
	}
	n, sz := binary.Uvarint(b[1:])
	if sz <= 0 || n > uint64(len(b)-1-sz)/2 {
		return nil, 0, false
	}
	return b[1+sz:], int(n), true
}

// nextEntry reads one map entry: its key, its value's encoding, and the
// bytes after it.
func nextEntry(b []byte) (key, val, rest []byte, ok bool) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n >= uint64(len(b)-sz) {
		return nil, nil, nil, false
	}
	key, b = b[sz:sz+int(n)], b[sz+int(n):]
	k := skipValue(b, 1)
	if k == 0 {
		return nil, nil, nil, false
	}
	return key, b[:k], b[k:], true
}

// skipValue returns the length of the value encoding at the front of b, or 0
// when it overruns b or nests deeper than maxDepth. It checks bounds only.
func skipValue(b []byte, depth int) int {
	if len(b) == 0 || depth > maxDepth {
		return 0
	}
	switch b[0] {
	case tagNull, tagFalse, tagTrue:
		return 1
	case tagFloat:
		if len(b) < 9 {
			return 0
		}
		return 9
	case tagInt:
		if _, sz := binary.Varint(b[1:]); sz > 0 {
			return 1 + sz
		}
	case tagString:
		if n, sz := binary.Uvarint(b[1:]); sz > 0 && n <= uint64(len(b)-1-sz) {
			return 1 + sz + int(n)
		}
	case tagArray, tagMap:
		n, sz := binary.Uvarint(b[1:])
		if sz <= 0 {
			return 0
		}
		off := 1 + sz
		for ; n > 0; n-- { // every element takes a byte: b bounds the loop
			if b[0] == tagMap {
				k, sz := binary.Uvarint(b[off:])
				if sz <= 0 || k >= uint64(len(b)-off-sz) {
					return 0
				}
				off += sz + int(k)
			}
			v := skipValue(b[off:], depth+1)
			if v == 0 {
				return 0
			}
			off += v
		}
		return off
	}
	return 0
}
