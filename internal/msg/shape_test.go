package msg

import (
	"bytes"
	"testing"
)

// TestShapedRoundTrip: a map with a shape's keys travels as its values and
// is rebuilt byte for byte; a map with other keys, or anything that is not
// a map, does not match, and values that do not fit the keys do not rebuild.
func TestShapedRoundTrip(t *testing.T) {
	enc := func(v Value) []byte {
		b, err := EncodeBinary(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	shape := enc(Map{"charging": true, "level": 80.0, "n": 7.0, "voltage": 3.9})
	for _, m := range []Map{
		{"charging": false, "level": 81.0, "n": 8.0, "voltage": 4.05},
		{"charging": nil, "level": "full", "n": []Value{1.0, Map{"x": 2.0}}, "voltage": Map{}},
	} {
		body := enc(m)
		vals, ok := AppendValues(nil, shape, body)
		if !ok {
			t.Fatalf("%v does not match the shape", m)
		}
		n, err := ShapedLen(shape, vals)
		if err != nil || n != len(body) {
			t.Fatalf("%v: rebuilt length %d (%v), want %d", m, n, err, len(body))
		}
		if got := AppendShaped(nil, shape, vals); !bytes.Equal(got, body) {
			t.Fatalf("%v rebuilt as %x, want %x", m, got, body)
		}
	}
	for _, body := range [][]byte{
		enc(Map{"charging": true, "level": 80.0, "n": 7.0}),
		enc(Map{"charging": true, "level": 80.0, "n": 7.0, "volts": 3.9}),
		enc([]Value{true, 80.0, 7.0, 3.9}),
		shape[:len(shape)-1],
		nil,
	} {
		if _, ok := AppendValues(nil, shape, body); ok {
			t.Errorf("%x matches the shape", body)
		}
	}
	vals, _ := AppendValues(nil, shape, shape)
	for _, bad := range [][]byte{vals[:len(vals)-9], append(vals[:len(vals):len(vals)], 0x00), {0x08}} {
		if _, err := ShapedLen(shape, bad); err == nil {
			t.Errorf("values %x rebuild", bad)
		}
	}
	if _, err := ShapedLen([]byte{0x04, 0x02}, nil); err == nil {
		t.Error("an integer is taken for a shape")
	}
}
