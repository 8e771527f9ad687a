package transport

import (
	"bytes"
	"reflect"
	"slices"
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
		Ack:    []uint64{7},
		Floors: map[string]uint64{"upload": 1},
	}
}

// encodeEnvelope flattens env's floors into the sorted parallel slices the
// encoder takes.
func encodeEnvelope(env *envelope) []byte {
	var floorCh []string
	for ch := range env.Floors {
		floorCh = append(floorCh, ch)
	}
	slices.Sort(floorCh)
	floorSeq := make([]uint64, len(floorCh))
	for i, ch := range floorCh {
		floorSeq[i] = env.Floors[ch]
	}
	return appendEnvelope(nil, env.From, string(env.Boot), env.Batch, env.Ack, floorCh, floorSeq)
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
// prefix of a valid envelope.
func TestTracedEnvelopeTruncationRejected(t *testing.T) {
	env := traceTestEnvelope()
	env.Batch[0].Trace = 99
	wire := encodeEnvelope(env)
	for cut := 0; cut < len(wire); cut++ {
		if _, err := decodeEnvelope(wire[:cut], new(envScratch)); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", cut)
		}
	}
}
