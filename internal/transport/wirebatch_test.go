package transport

import (
	"bytes"
	"testing"
)

func TestWireBatchRoundTrip(t *testing.T) {
	items := []WireItem{
		{ID: 7, Seq: 0, Channel: "phone0001", Body: []byte("hello")},
		{ID: 100000000, Seq: 42, Channel: "collector03", Body: nil},
		{ID: 1, Seq: 1, Channel: "c", Body: bytes.Repeat([]byte{0xB1}, 300)},
	}
	frame := AppendWireBatch(nil, "phone0042", items)
	from, got, err := DecodeWireBatch(frame, nil)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if from != "phone0042" {
		t.Fatalf("from = %q", from)
	}
	if len(got) != len(items) {
		t.Fatalf("items = %d, want %d", len(got), len(items))
	}
	for i := range items {
		if got[i].ID != items[i].ID || got[i].Seq != items[i].Seq || got[i].Channel != items[i].Channel {
			t.Fatalf("item %d = %+v, want %+v", i, got[i], items[i])
		}
		if !bytes.Equal(got[i].Body, items[i].Body) {
			t.Fatalf("item %d body mismatch", i)
		}
	}
}

func TestWireBatchDecodableByEnvelopeDecoder(t *testing.T) {
	// The exported batch must stay on the one envelope format: the ordinary
	// receive-path decoder has to parse it unchanged.
	frame := AppendWireBatch(nil, "w3", []WireItem{{ID: 9, Seq: 2, Channel: "ch", Body: []byte("x")}})
	body, err := unframe(frame)
	if err != nil {
		t.Fatalf("unframe: %v", err)
	}
	env, err := decodeEnvelope(body, new(envScratch))
	if err != nil {
		t.Fatalf("decodeEnvelope: %v", err)
	}
	if env.From != "w3" || len(env.Batch) != 1 || env.Batch[0].ID != 9 || env.Batch[0].Channel != "ch" {
		t.Fatalf("envelope = %+v", env)
	}
}

func TestWireBatchCorruptionDetected(t *testing.T) {
	frame := AppendWireBatch(nil, "w", []WireItem{{ID: 1, Channel: "c", Body: []byte("payload")}})
	frame[len(frame)-3] ^= 0xff
	if _, _, err := DecodeWireBatch(frame, nil); err == nil {
		t.Fatal("corrupted frame decoded without error")
	}
}

func TestWireBatchAppendsToExistingBuffer(t *testing.T) {
	// Multi-envelope IPC frames concatenate batches into one buffer; each
	// envelope's CRC must cover only its own region.
	buf := AppendWireBatch(nil, "a", []WireItem{{ID: 1, Channel: "x", Body: []byte("1")}})
	first := len(buf)
	buf = AppendWireBatch(buf, "b", []WireItem{{ID: 2, Channel: "y", Body: []byte("2")}})
	if from, _, err := DecodeWireBatch(buf[:first], nil); err != nil || from != "a" {
		t.Fatalf("first envelope: from=%q err=%v", from, err)
	}
	if from, _, err := DecodeWireBatch(buf[first:], nil); err != nil || from != "b" {
		t.Fatalf("second envelope: from=%q err=%v", from, err)
	}
}
