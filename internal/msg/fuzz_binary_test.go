package msg

import (
	"bytes"
	"testing"
)

// FuzzBinaryRoundTrip drives arbitrary bytes through the binary decoder.
// Inputs it accepts must round-trip canonically (decode → encode → decode
// converges, second encode is byte-identical) and must be value-equivalent
// through the JSON codec: the two wire formats may never disagree about
// message content. Hostile inputs may be rejected but must not panic — and
// the decoder's length/count guards mean a rejected input has not allocated
// anything proportional to its claimed sizes.
func FuzzBinaryRoundTrip(f *testing.F) {
	seeds := []Value{
		nil,
		true,
		42.0,
		-0.5,
		1e-9,
		123456789012345678.0,
		"hello",
		"unicode ✓ and \"quotes\"",
		[]Value{},
		[]Value{1.0, "two", nil, false},
		Map{},
		Map{"wifi": Map{"rssi": -61.0, "ssid": "eduroam"}, "tags": []Value{"a", "b"}},
	}
	for _, v := range seeds {
		b, err := EncodeBinary(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// Hostile shapes: claimed sizes far beyond the input, bad tags, depth.
	f.Add([]byte{tagArray, 0xff, 0xff, 0xff, 0xff, 0x07})
	f.Add([]byte{tagMap, 0xff, 0xff, 0xff, 0xff, 0x07})
	f.Add([]byte{tagString, 0xff, 0xff, 0xff, 0xff, 0x07})
	f.Add([]byte{0x7f})
	f.Add(bytes.Repeat([]byte{tagArray, 1}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := DecodeBinary(data)
		if err != nil {
			return // rejecting garbage is fine; crashing is not
		}
		b, err := EncodeBinary(v)
		if err != nil {
			t.Fatalf("decoded value does not re-encode: %v (input %q)", err, data)
		}
		if cap(b) != len(b) {
			t.Errorf("EncodeBinary made %d bytes for a %d-byte encoding", cap(b), len(b))
		}
		v2, err := DecodeBinary(b)
		if err != nil {
			t.Fatalf("own encoding does not decode: %v", err)
		}
		if !Equal(v, v2) {
			t.Errorf("binary round-trip diverged:\n in: %#v\nout: %#v", v, v2)
		}
		b2, err := EncodeBinary(v2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, b2) {
			t.Errorf("binary encoding not canonical: %x vs %x", b, b2)
		}
		// Cross-codec equivalence: the value must survive the JSON codec
		// with identical content.
		jb, err := EncodeJSON(v)
		if err != nil {
			t.Fatalf("binary-decoded value does not JSON-encode: %v", err)
		}
		jv, err := DecodeJSON(jb)
		if err != nil {
			t.Fatalf("JSON re-decode failed: %v (wire %q)", err, jb)
		}
		if !Equal(v, jv) {
			t.Errorf("codecs disagree:\nbinary: %#v\n  json: %#v", v, jv)
		}
	})
}
