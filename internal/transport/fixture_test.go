package transport

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pogo/internal/msg"
)

// readHexFixture loads a checked-in wire fixture (hex text, whitespace
// ignored).
func readHexFixture(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	b, err := hex.DecodeString(strings.Join(strings.Fields(string(raw)), ""))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return b
}

// The checked-in frames pin the one wire format byte for byte. The data
// envelope (two items on two channels, nonzero traces, floors) was generated
// by the commit before the 0xB1/0xB2 split was removed: matching it proves
// every data envelope an endpoint emits did not move. The ack-only envelope
// differs from that commit's only in its magic byte (and hence its CRC).
// testdata/stanza_frame.hex, the same data envelope inside a 0xB3 stanza
// frame, is asserted by internal/xmpp.
func TestWireFixtures(t *testing.T) {
	body := func(v msg.Value) []byte {
		b, err := msg.EncodeBinary(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, tc := range []struct {
		file string
		env  envelope
	}{
		{"data_envelope.hex", envelope{
			From: "phone-1", Boot: []byte("boot-7"),
			Batch: []envelopeItem{
				{ID: 41, Seq: 7, Channel: "battery", Trace: 0x0123456789abcdef,
					Body: body(msg.Map{"level": 0.5, "charging": true})},
				{ID: 42, Seq: 3, Channel: "wifi-scan", Trace: 0xfedcba9876543210,
					Body: body(msg.Map{"aps": []msg.Value{"aa:01", "aa:02"}, "n": 2.0})},
			},
			Floors: map[string]uint64{"battery": 7, "wifi-scan": 3},
		}},
		{"ack_envelope.hex", envelope{From: "collector", Boot: []byte("boot-c"), Ack: []uint64{41, 42}}},
	} {
		want := readHexFixture(t, tc.file)
		got := frameInto(append(frameHeader[:], encodeEnvelope(&tc.env)...))
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encoding moved:\n got %x\nwant %x", tc.file, got, want)
			continue
		}
		unframed, err := unframe(want)
		if err != nil {
			t.Errorf("%s: %v", tc.file, err)
			continue
		}
		dec, err := decodeEnvelope(unframed, new(envScratch))
		if err != nil || !reflect.DeepEqual(dec, tc.env) {
			t.Errorf("%s: decoded %+v (%v), want %+v", tc.file, dec, err, tc.env)
		}
	}
}
