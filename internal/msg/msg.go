// Package msg defines the message representation exchanged through Pogo's
// publish/subscribe framework.
//
// Messages are trees of key/value pairs (§4.3 of the paper) that map directly
// onto PogoScript objects so they can cross the Java↔JavaScript boundary —
// here the Go↔PogoScript boundary — without translation glue. Messages are
// serialized with the binary codec (binary.go) when delivered to a remote
// node; JSON is the human-facing interchange format.
//
// The value domain is deliberately small: nil, bool, float64, string,
// []Value, and Map. Integers are represented as float64, matching
// JavaScript's single number type.
package msg

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Value is any value that may appear in a message tree: nil, bool, float64,
// string, []Value, or Map.
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
	case bool, float64, string:
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
			if IsMarker(k, e) {
				continue // normalized copies are mutable; drop the freeze marker
			}
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

// Clone deep-copies a message value. Maps and slices are copied; scalars are
// returned as-is. Clones are always mutable: cloning a frozen map drops the
// freeze marker. Cloning at ownership boundaries keeps subscribers from
// mutating each other's view of a published message; the broker now freezes
// instead (see freeze.go), so Clone is the slow path writers pay via Thaw.
func Clone(v Value) Value {
	switch x := v.(type) {
	case []Value:
		return cloneSlice(x, 0)
	case Map:
		return cloneMap(x, 0)
	default:
		return x
	}
}

func cloneSlice(x []Value, extraCap int) []Value {
	out := make([]Value, len(x), len(x)+extraCap)
	for i, e := range x {
		out[i] = Clone(e)
	}
	return out
}

// cloneMap deep-copies a map, skipping the freeze marker. extraCap reserves
// room so Freeze can add the marker to the clone without a rehash.
func cloneMap(x Map, extraCap int) Map {
	out := make(Map, len(x)+extraCap)
	for k, e := range x {
		if IsMarker(k, e) {
			continue
		}
		out[k] = Clone(e)
	}
	return out
}

// Equal reports deep equality of two message values. NaN compares equal to
// NaN so that round-tripped messages containing NaN still match.
func Equal(a, b Value) bool {
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
		if !ok || Len(x) != Len(y) {
			return false
		}
		for k, v := range x {
			if IsMarker(k, v) {
				continue // freeze markers are invisible to message content
			}
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
		if math.IsNaN(x) || math.IsInf(x, 0) {
			// JSON has no NaN/Inf; JavaScript's JSON.stringify emits null.
			return append(dst, "null"...), nil
		}
		if x == math.Trunc(x) && math.Abs(x) < 1e15 {
			return strconv.AppendInt(dst, int64(x), 10), nil
		}
		return strconv.AppendFloat(dst, x, 'g', -1, 64), nil
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
		keys := appendKeys(buf[:0], x)
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
	default:
		return dst, fmt.Errorf("%w: %T", ErrUnsupportedValue, v)
	}
}

// appendJSONString appends a JSON-quoted string. The common case — no
// characters needing escapes — is a single pass; escaping falls back to the
// slow path. Output matches encoding/json for the characters we emit.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c == '"' || c == '\\' || c >= 0x80 {
			b, _ := json.Marshal(s)
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
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

// Get walks a dotted path ("wifi.rssi") through nested Maps and returns the
// value at the leaf, or (nil, false) when any step is missing.
func Get(m Map, path string) (Value, bool) {
	cur := Value(m)
	for _, part := range strings.Split(path, ".") {
		obj, ok := cur.(Map)
		if !ok {
			return nil, false
		}
		cur, ok = obj[part]
		if !ok {
			return nil, false
		}
	}
	return cur, true
}

// GetString returns the string at a dotted path, or "" when absent or not a
// string.
func GetString(m Map, path string) string {
	v, ok := Get(m, path)
	if !ok {
		return ""
	}
	s, _ := v.(string)
	return s
}

// GetNumber returns the float64 at a dotted path and whether it was present
// and numeric.
func GetNumber(m Map, path string) (float64, bool) {
	v, ok := Get(m, path)
	if !ok {
		return 0, false
	}
	f, ok := v.(float64)
	return f, ok
}
