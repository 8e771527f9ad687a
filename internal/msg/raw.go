// The message is its bytes.
//
// A Raw is a message held in its canonical binary encoding (binary.go): the
// broker's currency from publish to script. A phone encodes a published map
// once into an exactly sized buffer; that buffer is what every local
// subscriber reads, what the outbox keeps and what the wire carries. A
// collector validates the body it received and hands the same bytes on;
// scripts read fields straight from them (the script package's views) and
// json() transcodes them without building a tree.
//
// A Raw is immutable by construction: the only ways to make one are Encode,
// which writes a fresh buffer, and ParseRaw, which validates a buffer its
// caller hands over for good. Validation accepts exactly the bytes the
// encoder produces — sorted, unique, valid-UTF-8 keys, minimal varints, no
// NaN or infinity, integral values below 1e15 as integers, no trailing
// bytes — so reading a field from the bytes and reading it from the decoded
// tree can never disagree, and two Raws hold equal messages exactly when
// their bytes are equal.
//
// A Raw is one pointer, to the first byte of the encoding: it boxes into a
// Value without allocating, and a nested node is a Raw pointing inside its
// parent. The length is not stored; a validated encoding delimits itself,
// and Bytes walks it to find the end.
package msg

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"unicode/utf8"
	"unsafe"
)

// Raw is a message value in its canonical binary encoding. The zero Raw holds
// no message. Raws are immutable and safe to share across goroutines.
type Raw struct{ p *byte }

// Encode returns v's canonical encoding in a buffer of exactly its size: one
// allocation. It fails on values outside the message domain and on maps with
// two keys that become equal when invalid UTF-8 is replaced by U+FFFD.
func Encode(v Value) (Raw, error) {
	b, err := EncodeBinary(v)
	if err != nil {
		return Raw{}, err
	}
	return Raw{&b[0]}, nil
}

// ParseRaw validates b as a canonical encoding and returns it as a Raw. The
// Raw RETAINS b: the caller hands the buffer over and must never write to it
// again (the transport passes slices of frames it does not reuse). Anything
// the encoder would not have produced is rejected with errBinary.
func ParseRaw(b []byte) (Raw, error) {
	if err := validateAll(b); err != nil {
		return Raw{}, err
	}
	return Raw{&b[0]}, nil
}

// validateAll checks that b is exactly one canonical encoding.
func validateAll(b []byte) error {
	rest, err := validate(b, 0)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%w: %d bytes of trailing data", errBinary, len(rest))
	}
	return err
}

// IsZero reports whether r holds no message.
func (r Raw) IsZero() bool { return r.p == nil }

// Bytes returns the encoding. The slice aliases the Raw: read it, never write
// it.
func (r Raw) Bytes() []byte {
	if r.p == nil {
		return nil
	}
	w := r.walk()
	w.skip()
	return w.span(0)
}

// walker reads a validated encoding without knowing its length: every
// length and count it follows was checked, so it reads only bytes inside the
// encoding and never leaves the buffer. Accessors walk only as far as they
// must; nothing finds the end of an encoding unless it needs the bytes.
type walker struct {
	base unsafe.Pointer
	off  int
}

// walk starts a walker at r's first byte.
func (r Raw) walk() walker { return walker{base: unsafe.Pointer(r.p)} }

// str reads a length-prefixed string, sharing the encoding's bytes.
func (w *walker) str() string {
	n := w.uvarint()
	s := unsafe.String((*byte)(unsafe.Add(w.base, w.off)), n)
	w.off += n
	return s
}

// span returns the bytes from start to the walker's position.
func (w *walker) span(start int) []byte {
	return unsafe.Slice((*byte)(unsafe.Add(w.base, start)), w.off-start)
}

func (w *walker) byte() byte {
	c := *(*byte)(unsafe.Add(w.base, w.off))
	w.off++
	return c
}

func (w *walker) uvarint() int {
	if c := *(*byte)(unsafe.Add(w.base, w.off)); c < 0x80 {
		w.off++
		return int(c) // the common case, one byte, inlined
	}
	return w.uvarintLong()
}

func (w *walker) uvarintLong() int {
	var n, shift int
	for {
		c := w.byte()
		n |= int(c&0x7f) << shift
		if c < 0x80 {
			return n
		}
		shift += 7
	}
}

// skipScalar is skip with the scalars, the usual values of a map, handled
// without a call.
func (w *walker) skipScalar() {
	switch *(*byte)(unsafe.Add(w.base, w.off)) {
	case tagNull, tagFalse, tagTrue:
		w.off++
	case tagFloat:
		w.off += 9
	case tagString:
		w.off++
		w.off += w.uvarint()
	default:
		w.skip()
	}
}

func (w *walker) skip() {
	switch w.byte() {
	case tagFloat:
		w.off += 8
	case tagInt:
		w.uvarint()
	case tagString:
		w.off += w.uvarint()
	case tagArray:
		for n := w.uvarint(); n > 0; n-- {
			w.skip()
		}
	case tagMap:
		for n := w.uvarint(); n > 0; n-- {
			w.off += w.uvarint()
			w.skip()
		}
	}
}

// Map decodes r into a private, mutable tree: what a writer needs. It is nil
// when r does not hold a map.
func (r Raw) Map() Map {
	m, _ := r.Value().(Map)
	return m
}

// Value decodes r into a private tree, whatever value r holds. A validated
// encoding cannot fail to decode.
func (r Raw) Value() Value {
	if r.p == nil {
		return nil
	}
	v, _, _ := decodeBinary(r.Bytes(), 0)
	return v
}

// Len returns the number of entries of a map or elements of an array, and 0
// for anything else.
func (r Raw) Len() int {
	if !r.IsMap() && !r.IsArray() {
		return 0
	}
	w := r.walk()
	w.off = 1
	return w.uvarint()
}

// IsMap reports whether r holds a map; IsArray whether it holds an array.
func (r Raw) IsMap() bool   { return r.p != nil && *r.p == tagMap }
func (r Raw) IsArray() bool { return r.p != nil && *r.p == tagArray }

// Field returns the value under key when r holds a map: scalars as their Go
// values, a nested map or array as a Raw inside r.
func (r Raw) Field(key string) (Value, bool) {
	span, ok := r.field(key)
	if !ok {
		return nil, false
	}
	return spanValue(span), true
}

// field returns the span of key's value when r holds a map.
func (r Raw) field(key string) ([]byte, bool) {
	if !r.IsMap() {
		return nil, false
	}
	w := r.walk()
	w.off = 1
	for n := w.uvarint(); n > 0; n-- {
		found := w.str() == key
		start := w.off
		w.skipScalar()
		if found {
			return w.span(start), true
		}
	}
	return nil, false
}

// path returns the span at a dotted path below r.
func (r Raw) path(path string) ([]byte, bool) {
	for {
		part, rest, more := strings.Cut(path, ".")
		span, ok := r.field(part)
		if !ok || !more {
			return span, ok
		}
		r, path = Raw{&span[0]}, rest
	}
}

// Range calls fn for every entry of a map, in key order, or every element of
// an array, with key "": values as Field returns them. key shares r's bytes,
// as every string read from r does.
func (r Raw) Range(fn func(key string, v Value)) {
	isMap := r.IsMap()
	if !isMap && !r.IsArray() {
		return
	}
	w := r.walk()
	w.off = 1
	for n := w.uvarint(); n > 0; n-- {
		var k string
		if isMap {
			k = w.str()
		}
		start := w.off
		w.skipScalar()
		fn(k, spanValue(w.span(start)))
	}
}

// appendJSON transcodes the value at the walker to the JSON AppendJSON
// writes for its tree. Map keys are stored sorted, so they come out in
// AppendJSON's order.
func (w *walker) appendJSON(dst []byte) []byte {
	switch w.byte() {
	case tagNull:
		return append(dst, "null"...)
	case tagFalse:
		return append(dst, "false"...)
	case tagTrue:
		return append(dst, "true"...)
	case tagFloat:
		w.off += 8
		return appendJSONNumber(dst, spanNumber(w.span(w.off-9)))
	case tagInt:
		start := w.off - 1
		w.uvarint() // a zigzag varint is a uvarint to skip
		return appendJSONNumber(dst, spanNumber(w.span(start)))
	case tagString:
		return appendJSONString(dst, w.str())
	case tagArray:
		dst = append(dst, '[')
		for i, n := 0, w.uvarint(); i < n; i++ {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = w.appendJSON(dst)
		}
		return append(dst, ']')
	default: // tagMap
		dst = append(dst, '{')
		for i, n := 0, w.uvarint(); i < n; i++ {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(appendJSONString(dst, w.str()), ':')
			dst = w.appendJSON(dst)
		}
		return append(dst, '}')
	}
}

// TranscodeJSON appends to dst the JSON text of enc, a canonical encoding:
// what AppendJSON writes for the Raw ParseRaw(enc) would return. enc is
// validated and not retained, so a caller may write it in a scratch buffer
// it reuses.
func TranscodeJSON(dst, enc []byte) ([]byte, error) {
	if err := validateAll(enc); err != nil {
		return dst, err
	}
	w := walker{base: unsafe.Pointer(&enc[0])}
	return w.appendJSON(dst), nil
}

// spanString reads the string encoded in span.
func spanString(span []byte) string {
	w := walker{base: unsafe.Pointer(&span[0]), off: 1}
	return w.str()
}

// spanValue returns the value encoded in span: scalars decoded (numbers and
// short strings from the shared box caches, longer strings aliasing the
// bytes), containers as Raws.
func spanValue(span []byte) Value {
	switch span[0] {
	case tagNull:
		return nil
	case tagFalse:
		return false
	case tagTrue:
		return true
	case tagFloat, tagInt:
		return BoxFloat(spanNumber(span))
	case tagString:
		return BoxString(spanString(span))
	default:
		return Raw{&span[0]}
	}
}

// spanNumber decodes a number span.
func spanNumber(span []byte) float64 {
	if span[0] == tagFloat {
		return math.Float64frombits(binary.BigEndian.Uint64(span[1:]))
	}
	n, _ := binary.Varint(span[1:])
	return float64(n)
}

// validate checks that the value at the front of b is exactly what the
// encoder writes, and returns the bytes after it.
func validate(b []byte, depth int) ([]byte, error) {
	if depth > maxDepth {
		return nil, fmt.Errorf("%w: nesting too deep", errBinary)
	}
	if len(b) == 0 {
		return nil, fmt.Errorf("%w: unexpected end of input", errBinary)
	}
	tag := b[0]
	b = b[1:]
	switch tag {
	case tagNull, tagFalse, tagTrue:
		return b, nil
	case tagFloat:
		if len(b) < 8 {
			return nil, fmt.Errorf("%w: truncated float", errBinary)
		}
		f := math.Float64frombits(binary.BigEndian.Uint64(b))
		if math.IsNaN(f) || math.IsInf(f, 0) || (f == math.Trunc(f) && math.Abs(f) < 1e15) {
			return nil, fmt.Errorf("%w: non-canonical float", errBinary)
		}
		return b[8:], nil
	case tagInt:
		n, sz := binary.Varint(b)
		if sz <= 0 || !minimal(b, sz) || n <= -1e15 || n >= 1e15 {
			return nil, fmt.Errorf("%w: non-canonical integer", errBinary)
		}
		return b[sz:], nil
	case tagString:
		_, rest, err := validStr(b)
		return rest, err
	case tagArray:
		n, rest, err := validCount(b, 1)
		if err != nil {
			return nil, err
		}
		for ; n > 0; n-- {
			if rest, err = validate(rest, depth+1); err != nil {
				return nil, err
			}
		}
		return rest, nil
	case tagMap:
		n, rest, err := validCount(b, 2)
		if err != nil {
			return nil, err
		}
		var prev []byte
		for i := 0; i < n; i++ {
			var k []byte
			if k, rest, err = validStr(rest); err != nil {
				return nil, err
			}
			if i > 0 && bytes.Compare(prev, k) >= 0 {
				return nil, fmt.Errorf("%w: map keys not sorted and unique", errBinary)
			}
			prev = k
			if rest, err = validate(rest, depth+1); err != nil {
				return nil, err
			}
		}
		return rest, nil
	default:
		return nil, fmt.Errorf("%w: unknown tag 0x%02x", errBinary, tag)
	}
}

// minimal reports whether the sz-byte varint at the front of b is the
// shortest encoding of its value: only a one-byte varint may end in 0x00.
func minimal(b []byte, sz int) bool { return sz == 1 || b[sz-1] != 0 }

// validCount reads a canonical uvarint count and rejects one that even
// minSize bytes per element would overrun.
func validCount(b []byte, minSize int) (int, []byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || !minimal(b, sz) {
		return 0, nil, fmt.Errorf("%w: bad count", errBinary)
	}
	b = b[sz:]
	if n > uint64(len(b)/minSize) {
		return 0, nil, fmt.Errorf("%w: count %d exceeds input", errBinary, n)
	}
	return int(n), b, nil
}

// validStr reads a canonical length-prefixed UTF-8 string.
func validStr(b []byte) ([]byte, []byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || !minimal(b, sz) {
		return nil, nil, fmt.Errorf("%w: bad string length", errBinary)
	}
	b = b[sz:]
	if n > uint64(len(b)) {
		return nil, nil, fmt.Errorf("%w: string length %d exceeds input", errBinary, n)
	}
	if !utf8.Valid(b[:n]) {
		return nil, nil, fmt.Errorf("%w: invalid UTF-8", errBinary)
	}
	return b[:n], b[n:], nil
}
