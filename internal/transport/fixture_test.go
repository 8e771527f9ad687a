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

// The checked-in frames pin the one wire format, envelope v4 (magic 0xB4:
// a channel table, delta IDs and sequences, a trace as a publication
// number or whole, a binary CRC-32C frame check), byte for byte. The data
// envelope carries two items on two channels — a relayed publication's
// number and an explicit trace — and floors; the ack-only envelope two ack
// IDs. testdata/stanza_frame.hex, the same data envelope inside a 0xB3
// stanza frame with its binary trace field, is asserted by internal/xmpp.
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
				{ID: 41, Seq: 7, Channel: "battery", Pub: 57,
					Body: body(msg.Map{"level": 0.5, "charging": true})},
				{ID: 42, Seq: 3, Channel: "wifi-scan", Trace: 0xfedcba9876543210,
					Body: body(msg.Map{"aps": []msg.Value{"aa:01", "aa:02"}, "n": 2.0})},
			},
			FloorCh: []string{"battery", "wifi-scan"}, FloorSeq: []uint64{7, 3},
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
