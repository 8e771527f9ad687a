package msg

import (
	"testing"
)

// FuzzDecode drives arbitrary bytes through DecodeFrozen, the decoder the
// transport calls on every delivered wire body (aliased strings, interned
// keys, in-place freeze, memo cache). It must accept exactly what the plain
// DecodeBinary accepts, produce an Equal value, hand back map roots frozen
// (or unfrozen only on a hostile marker-key collision), and be stable when the
// same bytes arrive again through the memo.
func FuzzDecode(f *testing.F) {
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
	f.Add([]byte(`{"json":"is not a wire format"}`))
	f.Add([]byte{tagMap, 1, byte(len(markerKey)), 0, 'f', 'r', 'o', 'z', 'e', 'n', tagTrue})
	f.Add([]byte{tagString, 2, 0xff, 0xfe})

	f.Fuzz(func(t *testing.T, data []byte) {
		// DecodeFrozen retains its input; the fuzzer reuses its buffers.
		own := append([]byte(nil), data...)
		want, wantErr := DecodeBinary(data)
		got, err := DecodeFrozen(own)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("acceptance differs on %x: frozen %v, plain %v", data, err, wantErr)
		}
		if err != nil {
			return // rejecting garbage is fine; crashing is not
		}
		if !Equal(got, want) {
			t.Fatalf("frozen decode diverged on %x:\nfrozen: %#v\n plain: %#v", data, got, want)
		}
		if m, ok := got.(Map); ok && !IsFrozen(m) {
			if _, collides := m[markerKey]; !collides {
				t.Fatalf("map root not frozen: %#v", m)
			}
		}
		again, err := DecodeFrozen(append([]byte(nil), data...))
		if err != nil || !Equal(again, want) {
			t.Fatalf("second decode of %x diverged: %#v, %v", data, again, err)
		}
	})
}
