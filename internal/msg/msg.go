// Package msg defines the message representation exchanged through Pogo's
// publish/subscribe framework.
//
// Messages are trees of key/value pairs (§4.3 of the paper) that map directly
// onto PogoScript objects so they can cross the Java↔JavaScript boundary —
// here the Go↔PogoScript boundary — without translation glue. Messages are
// serialized with the binary codec (binary.go), and a published message
// travels as its encoding, a Raw (raw.go); JSON is the human-facing
// interchange format.
//
// The value domain is deliberately small: nil, bool, float64, string,
// []Value, Map, and Raw (any of the others, encoded). Integers are
// represented as float64, matching JavaScript's single number type.
package msg

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Value is any value that may appear in a message tree: nil, bool, float64,
// string, []Value, Map, or Raw.
type Value = any

// Map is a message object node: string keys to Values.
type Map = map[string]Value

// ErrUnsupportedValue reports a Go value outside the message value domain.
var ErrUnsupportedValue = errors.New("msg: unsupported value type")

// Normalize converts an arbitrary Go value into the canonical message value
// domain. It accepts all Go integer and float types (converted to float64),
// strings, bools, nil, slices, and maps with string keys. It returns
// ErrUnsupportedValue for anything else (channels, funcs, structs, ...).
func Normalize(v any) (Value, error) {
	switch x := v.(type) {
	case nil:
		return nil, nil
	case bool, float64, string, Raw:
		return x, nil
	case float32:
		return float64(x), nil
	case int:
		return float64(x), nil
	case int8:
		return float64(x), nil
	case int16:
		return float64(x), nil
	case int32:
		return float64(x), nil
	case int64:
		return float64(x), nil
	case uint:
		return float64(x), nil
	case uint8:
		return float64(x), nil
	case uint16:
		return float64(x), nil
	case uint32:
		return float64(x), nil
	case uint64:
		return float64(x), nil
	case []Value:
		out := make([]Value, len(x))
		for i, e := range x {
			n, err := Normalize(e)
			if err != nil {
				return nil, err
			}
			out[i] = n
		}
		return out, nil
	case Map:
		out := make(Map, len(x))
		for k, e := range x {
			n, err := Normalize(e)
			if err != nil {
				return nil, err
			}
			out[k] = n
		}
		return out, nil
	default:
		return nil, fmt.Errorf("%w: %T", ErrUnsupportedValue, v)
	}
}

// MustNormalize is Normalize for statically well-formed literals; it panics
// on unsupported values and is intended for tests and package literals.
func MustNormalize(v any) Value {
	n, err := Normalize(v)
	if err != nil {
		panic(err)
	}
	return n
}

// Clone deep-copies a message value. Maps and slices are copied; scalars
// and Raws, which are immutable, are returned as-is.
func Clone(v Value) Value {
	switch x := v.(type) {
	case []Value:
		out := make([]Value, len(x))
		for i, e := range x {
			out[i] = Clone(e)
		}
		return out
	case Map:
		out := make(Map, len(x))
		for k, e := range x {
			out[k] = Clone(e)
		}
		return out
	default:
		return x
	}
}

// Freeze returns a deep copy of m to be shared read-only: a snapshot the
// caller's later writes to m do not reach. Freeze(nil) is nil.
func Freeze(m Map) Map {
	if m == nil {
		return nil
	}
	c, _ := Clone(m).(Map)
	return c
}

// Equal reports deep equality of two message values. NaN compares equal to
// NaN so that round-tripped messages containing NaN still match. A Raw equals
// a tree holding the same message; two Raws are equal when their bytes are,
// which canonical encoding makes the same thing.
func Equal(a, b Value) bool {
	if ra, ok := a.(Raw); ok {
		if rb, ok := b.(Raw); ok {
			return string(ra.Bytes()) == string(rb.Bytes())
		}
		a = ra.Value()
	}
	if rb, ok := b.(Raw); ok {
		b = rb.Value()
	}
	switch x := a.(type) {
	case nil:
		return b == nil
	case bool:
		y, ok := b.(bool)
		return ok && x == y
	case string:
		y, ok := b.(string)
		return ok && x == y
	case float64:
		y, ok := b.(float64)
		if !ok {
			return false
		}
		if math.IsNaN(x) && math.IsNaN(y) {
			return true
		}
		return x == y
	case []Value:
		y, ok := b.([]Value)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !Equal(x[i], y[i]) {
				return false
			}
		}
		return true
	case Map:
		y, ok := b.(Map)
		if !ok || len(x) != len(y) {
			return false
		}
		for k, v := range x {
			w, present := y[k]
			if !present || !Equal(v, w) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// EncodeJSON serializes a message value to JSON with deterministic key order
// (keys sorted lexicographically). Deterministic output keeps byte-count
// accounting in the experiments reproducible.
func EncodeJSON(v Value) ([]byte, error) {
	// Room for a typical sensor reading, so that most calls allocate once.
	return AppendJSON(make([]byte, 0, 256), v)
}

// AppendJSON appends v's JSON encoding (the bytes EncodeJSON returns) to dst
// and returns the extended buffer, so a caller that encodes repeatedly can
// reuse one. On error the returned buffer holds a partial encoding.
func AppendJSON(dst []byte, v Value) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, "null"...), nil
	case bool:
		return strconv.AppendBool(dst, x), nil
	case float64:
		return appendJSONNumber(dst, x), nil
	case string:
		return appendJSONString(dst, x), nil
	case []Value:
		dst = append(dst, '[')
		for i, e := range x {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = AppendJSON(dst, e); err != nil {
				return dst, err
			}
		}
		return append(dst, ']'), nil
	case Map:
		// Few message nodes have more keys than this: sort them in a buffer
		// on the stack.
		var buf [32]string
		keys := buf[:0]
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		dst = append(dst, '{')
		for i, k := range keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, k)
			dst = append(dst, ':')
			var err error
			if dst, err = AppendJSON(dst, x[k]); err != nil {
				return dst, err
			}
		}
		return append(dst, '}'), nil
	case Raw:
		if x.IsZero() {
			return append(dst, "null"...), nil
		}
		w := x.walk()
		return w.appendJSON(dst), nil
	default:
		return dst, fmt.Errorf("%w: %T", ErrUnsupportedValue, v)
	}
}

// appendJSONNumber appends f's JSON form.
func appendJSONNumber(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		// JSON has no NaN/Inf; JavaScript's JSON.stringify emits null.
		return append(dst, "null"...)
	}
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.AppendInt(dst, int64(f), 10)
	}
	return strconv.AppendFloat(dst, f, 'g', -1, 64)
}

// appendJSONString appends s JSON-quoted by encoding/json's rule: '"' and
// '\\' escaped, \b \f \n \r \t in short form, other control characters,
// '<', '>' and '&' as \u00XX, U+2028 and U+2029 as \u2028 and \u2029, and
// invalid UTF-8 as \ufffd. Runs needing no escape are copied whole.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xf])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// DecodeJSON parses JSON into a message value: objects decode to Map, arrays
// to []Value, numbers to float64 — encoding/json's untyped output is exactly
// the message value domain. Nothing on the wire is JSON; the callers are
// JSON.parse in scripts and the thaw of persisted script state.
func DecodeJSON(data []byte) (Value, error) {
	var v Value
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, fmt.Errorf("msg: decode: %w", err)
	}
	return v, nil
}

// Get walks a dotted path ("wifi.rssi") through nested maps — trees, Raws, or
// a tree holding Raws — and returns the value at the leaf, or (nil, false)
// when any step is missing. A leaf read from a Raw comes back as Raw.Field
// returns it.
func Get[M Map | Raw](m M, path string) (Value, bool) {
	v, span, ok := get(m, path)
	if span != nil {
		return spanValue(span), true
	}
	return v, ok
}

// get walks path. A leaf inside an encoding comes back as its span, which
// the typed accessors read without boxing; any other leaf as v.
func get(m Value, path string) (v Value, span []byte, ok bool) {
	cur := m
	for {
		if r, isRaw := cur.(Raw); isRaw {
			span, ok = r.path(path)
			return nil, span, ok
		}
		obj, isMap := cur.(Map)
		if !isMap {
			return nil, nil, false
		}
		part, rest, more := strings.Cut(path, ".")
		if cur, ok = obj[part]; !ok {
			return nil, nil, false
		}
		if !more {
			return cur, nil, true
		}
		path = rest
	}
}

// GetString returns the string at a dotted path, or "" when absent or not a
// string.
func GetString[M Map | Raw](m M, path string) string {
	v, span, _ := get(m, path)
	if span != nil && span[0] == tagString {
		return spanString(span)
	}
	s, _ := v.(string)
	return s
}

// GetNumber returns the float64 at a dotted path and whether it was present
// and numeric.
func GetNumber[M Map | Raw](m M, path string) (float64, bool) {
	v, span, _ := get(m, path)
	if span != nil {
		if span[0] == tagFloat || span[0] == tagInt {
			return spanNumber(span), true
		}
		return 0, false
	}
	f, ok := v.(float64)
	return f, ok
}
