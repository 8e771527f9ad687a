package msg

import (
	"bytes"
	"testing"
)

// FuzzDecode drives arbitrary bytes through DecodeFrozen, the decode the
// transport applies to every delivered wire body. It must accept exactly the
// canonical bodies — those DecodeBinary accepts and re-encodes to the same
// bytes — and hand back a Raw Equal to DecodeBinary's tree. FuzzRaw checks
// everything read from that Raw against the tree.
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
	f.Add([]byte{tagMap, 1, 7, 0, 'f', 'r', 'o', 'z', 'e', 'n', tagTrue})
	f.Add([]byte{tagString, 2, 0xff, 0xfe})

	f.Fuzz(func(t *testing.T, data []byte) {
		// DecodeFrozen retains its input; the fuzzer reuses its buffers.
		own := append([]byte(nil), data...)
		tree, treeErr := DecodeBinary(data)
		canonical := treeErr == nil
		if canonical {
			again, err := EncodeBinary(tree)
			canonical = err == nil && bytes.Equal(again, data)
		}
		got, err := DecodeFrozen(own)
		if (err == nil) != canonical {
			t.Fatalf("acceptance differs on %x: DecodeFrozen %v, canonical %v (tree error %v)", data, err, canonical, treeErr)
		}
		if err != nil {
			return // rejecting garbage is fine; crashing is not
		}
		if r, ok := got.(Raw); !ok || !bytes.Equal(r.Bytes(), data) {
			t.Fatalf("DecodeFrozen(%x) = %#v, want a Raw of the input", data, got)
		}
		if !Equal(got, tree) {
			t.Fatalf("DecodeFrozen diverged on %x from the tree %#v", data, tree)
		}
	})
}
