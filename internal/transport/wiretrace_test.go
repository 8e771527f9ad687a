package transport

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
)

func traceTestEnvelope() *envelope {
	return &envelope{
		From: "phone01",
		Boot: []byte("boot-1"),
		Batch: []envelopeItem{
			{ID: 1, Seq: 1, Channel: "upload", Body: []byte{0x07, 0x00}},
			{ID: 2, Seq: 2, Channel: "upload", Body: []byte{0x04, 0x02}},
		},
		Ack:      []uint64{7},
		FloorCh:  []string{"upload"},
		FloorSeq: []uint64{1},
	}
}

// encodeEnvelope encodes env unframed; its floor channels must be sorted.
func encodeEnvelope(env *envelope) []byte {
	return appendEnvelope(nil, new(chanTable), env.From, string(env.Boot), env.Batch, env.Ack, env.FloorCh, env.FloorSeq)
}

// TestBinaryEnvelopeUntracedUnchanged: an envelope whose items carry no trace
// IDs decodes with every trace 0 and re-encodes byte-identically.
func TestBinaryEnvelopeUntracedUnchanged(t *testing.T) {
	wire := encodeEnvelope(traceTestEnvelope())
	dec, err := decodeEnvelope(wire, new(envScratch))
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range dec.Batch {
		if it.Trace != 0 {
			t.Fatalf("item %d decoded trace %d from an untraced envelope", i, it.Trace)
		}
	}
	if again := encodeEnvelope(&dec); !bytes.Equal(wire, again) {
		t.Fatal("untraced envelope did not re-encode byte-identically")
	}
}

// Traced and untraced (trace 0) items share one layout under one magic.
func TestBinaryEnvelopeTraceRoundTrip(t *testing.T) {
	env := traceTestEnvelope()
	env.Batch[0].Trace = 0xdeadbeefcafe // mixed: item 1 stays untraced
	wire := encodeEnvelope(env)
	if wire[0] != envMagic {
		t.Fatalf("magic = %#x, want %#x", wire[0], envMagic)
	}
	dec, err := decodeEnvelope(wire, new(envScratch))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*env, dec) {
		t.Fatalf("roundtrip mismatch:\n  sent %+v\n  got  %+v", *env, dec)
	}
	if dec.Batch[0].Trace != 0xdeadbeefcafe || dec.Batch[1].Trace != 0 {
		t.Fatalf("traces = %d, %d; want mixed values preserved", dec.Batch[0].Trace, dec.Batch[1].Trace)
	}
}

// TestTracedEnvelopeTruncationRejected: the per-item minimum size
// participates in count validation, so a header claiming more items than its
// bytes can hold is rejected before allocation — as is every other proper
// prefix of a valid envelope, one channel or several, with acks and floors.
func TestTracedEnvelopeTruncationRejected(t *testing.T) {
	env := traceTestEnvelope()
	env.Batch[0].Trace = 99
	multi := &envelope{
		From: "phone01", Boot: []byte("boot-1"),
		Batch: []envelopeItem{
			{ID: 300, Seq: 9, Channel: "wifi", Trace: 1 << 63, Body: []byte{0x00}},
			{ID: 301, Seq: 40, Channel: "gps", Pub: 77, Body: []byte{0x02}},
			{ID: 305, Seq: 10, Channel: "wifi", Trace: 7},
		},
		Ack:     []uint64{12, 11, 400},
		FloorCh: []string{"battery", "gps", "wifi"}, FloorSeq: []uint64{3, 40, 9},
	}
	for _, env := range []*envelope{env, multi} {
		wire := encodeEnvelope(env)
		for cut := 0; cut < len(wire); cut++ {
			if _, err := decodeEnvelope(wire[:cut], new(envScratch)); err == nil {
				t.Fatalf("truncation of %x to %d bytes decoded without error", wire, cut)
			}
		}
	}
}

// hostileEnvelope is a valid envelope head (magic, from, boot, a one-name
// channel table) followed by rest.
func hostileEnvelope(rest ...byte) []byte {
	b := appendUvStr(appendUvStr([]byte{envMagic}, "phone01"), "boot-1")
	b = appendUvStr(append(b, 1), "upload")
	return append(b, rest...)
}

// TestHostileEnvelopesRejected: an envelope that breaks the layout after a
// valid head is refused, and nothing is allocated from a count it claims.
func TestHostileEnvelopesRejected(t *testing.T) {
	trace := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	item := func(channel byte) []byte { // id 1, the given channel, seq 1, an explicit trace, empty body
		return append(append([]byte{1, channel<<1 | 1, 2}, trace...), 0)
	}
	pubItem := []byte{1, 0, 2, 2, 0} // id 1, channel 0, seq 1, publication 1 + 1, empty body
	for _, tc := range []struct {
		name, why string
		b         []byte
	}{
		{"item channel index past the table", "channel index", hostileEnvelope(append(append([]byte{1}, item(1)...), 0, 0)...)},
		{"floor channel index past the table", "channel index", hostileEnvelope(0, 0, 1, 1, 5)},
		// A 10-byte ID delta lets the item pass the count check with only
		// three bytes of its trace.
		{"truncated trace", "truncated trace", hostileEnvelope(1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 1, 2, 1, 2, 3)},
		{"publication number 0", "publication number 0", hostileEnvelope(1, 1, 0, 2, 1, 0, 0, 0)},
		{"two items, bytes for one", "count 2", hostileEnvelope(append(append([]byte{2}, pubItem...), 0, 0)...)},
		{"2^40 items", "count", hostileEnvelope(append(binary.AppendUvarint(nil, 1<<40), item(0)...)...)},
		{"2^40 channels", "count", append(appendUvStr(appendUvStr([]byte{envMagic}, "phone01"), "boot-1"),
			binary.AppendUvarint(nil, 1<<40)...)},
		{"2^40 acks", "count", hostileEnvelope(append(append([]byte{0}, binary.AppendUvarint(nil, 1<<40)...), 2, 2, 2, 0)...)},
		{"2^40 floors", "count", hostileEnvelope(append([]byte{0, 0}, binary.AppendUvarint(nil, 1<<40)...)...)},
	} {
		sc := new(envScratch)
		if _, err := decodeEnvelope(tc.b, sc); err == nil || !strings.Contains(err.Error(), tc.why) {
			t.Errorf("%s: decode error %v, want one about %q", tc.name, err, tc.why)
		}
		if c := cap(sc.batch) + cap(sc.ack) + cap(sc.floorCh) + cap(sc.floorSeq) + cap(sc.tab); c > len(tc.b) {
			t.Errorf("%s: decoding %d bytes left room for %d elements", tc.name, len(tc.b), c)
		}
	}
	// The head and the items are sound: with the table widened, the
	// channel-index cases decode.
	ok := hostileEnvelope(append(append([]byte{1}, item(0)...), 0, 1, 0, 5)...)
	if env, err := decodeEnvelope(ok, new(envScratch)); err != nil || len(env.Batch) != 1 || env.FloorCh[0] != "upload" {
		t.Fatalf("the sound variant decoded to %+v (%v)", env, err)
	}
}
