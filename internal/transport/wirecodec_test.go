package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"pogo/internal/msg"
)

// TestBootIDsAreNotInterned: a boot ID is new with every node start. A
// long-lived collector that interned them would fill the interner's bounded
// table with keys never seen again, and from then on every key new to it —
// a channel, a field name — would be copied on every decode.
func TestBootIDsAreNotInterned(t *testing.T) {
	for i := 0; i < 10000; i++ {
		boot := fmt.Sprintf("boot-%d", i)
		env, err := decodeEnvelope(appendEnvelope(nil, new(chanTable), "phone-1", boot, nil, []uint64{1}, nil, nil), new(envScratch), false)
		if err != nil || string(env.Boot) != boot {
			t.Fatalf("decoded boot %q (%v), want %q", env.Boot, err, boot)
		}
	}
	key := []byte("a key first seen after ten thousand boots")
	if a, b := msg.Intern(key), msg.Intern(key); unsafe.StringData(a) != unsafe.StringData(b) {
		t.Error("the interner no longer shares new keys: boot IDs filled it")
	}
}

// TestEnvelopeItemOverhead pins what an item costs on the wire: n
// consecutive relayed publications on one channel, bodies under 128 bytes,
// cost their bodies plus 5 bytes each plus a constant — the magic, from,
// boot, the channel's one table entry, and the three counts — however many
// numbers the node spent between them on what it did not send, fewer than
// 64; n items with explicit traces cost their bodies plus 12 bytes each plus
// the same constant; n maps with the same keys cost their values plus 5
// bytes each plus the keys once plus the constant; and an envelope over k
// channels spells each name exactly once, however many items and floors
// name it.
func TestEnvelopeItemOverhead(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const from, boot, channel = "phone-1", "boot-7", "battery"
	constant := 1 + (1 + len(from)) + (1 + len(boot)) + 1 + (1 + len(channel)) + 1 + 1 + 1
	tab := new(chanTable)
	for n := 1; n <= 100; n++ {
		pubs := make([]envelopeItem, n)
		explicit := make([]envelopeItem, n)
		sum := 0
		pub := uint64(1 + rng.Intn(64))
		for i := range pubs {
			body := make([]byte, rng.Intn(128))
			sum += len(body)
			pubs[i] = envelopeItem{ID: uint64(1 + i), Seq: uint64(i), Channel: channel, Pub: pub, Body: body}
			explicit[i] = envelopeItem{ID: uint64(1 + i), Seq: uint64(i), Channel: channel, Trace: rng.Uint64(), Body: body}
			pub += uint64(1 + rng.Intn(32))
		}
		if got, want := len(appendEnvelope(nil, tab, from, boot, pubs, nil, nil, nil)), sum+5*n+constant; got != want {
			t.Fatalf("%d publications with %d body bytes: %d bytes, want %d = bodies + 5·n + %d", n, sum, got, want, constant)
		}
		if got, want := len(appendEnvelope(nil, tab, from, boot, explicit, nil, nil, nil)), sum+12*n+constant; got != want {
			t.Fatalf("%d explicit traces with %d body bytes: %d bytes, want %d = bodies + 12·n + %d", n, sum, got, want, constant)
		}
	}

	// A run of n maps with the same keys on one channel spells the keys
	// once: the first map travels whole, the others as their values alone.
	for n := 1; n <= 100; n++ {
		run := make([]envelopeItem, n)
		values := 0
		pub := uint64(1 + rng.Intn(64))
		for i := range run {
			body, err := msg.EncodeBinary(msg.Map{"charging": rng.Intn(4) == 0, "level": float64(rng.Intn(101)),
				"n": float64(rng.Intn(1 << 20)), "voltage": 3.5 + float64(rng.Intn(700))/1000})
			if err != nil {
				t.Fatal(err)
			}
			vals, _ := msg.AppendValues(nil, body, body)
			values += len(vals)
			run[i] = envelopeItem{ID: uint64(1 + i), Seq: uint64(i), Channel: channel, Pub: pub, Body: body}
			pub += uint64(1 + rng.Intn(32))
		}
		first, _ := msg.AppendValues(nil, run[0].Body, run[0].Body)
		keys := len(run[0].Body) - len(first) // the map head and its keys
		wire := appendEnvelope(nil, tab, from, boot, run, nil, nil, nil)
		if want := values + 5*n + keys + constant; len(wire) != want {
			t.Fatalf("a run of %d maps with %d bytes of values: %d bytes, want %d = values + 5·n + %d of keys + %d", n, values, len(wire), want, keys, constant)
		}
		if env, err := decodeEnvelope(wire, new(envScratch), false); err != nil || !sameEnvelope(env, envelope{From: from, Boot: []byte(boot), Batch: run}) {
			t.Fatalf("the run of %d maps decoded to %+v (%v)", n, env, err)
		}
	}

	const k = 9
	names := make([]string, k)
	for c := range names {
		names[c] = fmt.Sprintf("channel-%d", c)
	}
	var batch []envelopeItem
	seq := make([]uint64, k)
	sum := 0
	for i := 0; i < 60; i++ {
		c := rng.Intn(k)
		body := make([]byte, rng.Intn(128))
		sum += len(body)
		seq[c]++
		batch = append(batch, envelopeItem{ID: uint64(1 + i), Seq: seq[c], Channel: names[c], Pub: uint64(1 + i), Body: body})
	}
	floorSeq := make([]uint64, k)
	wire := appendEnvelope(nil, tab, from, boot, batch, nil, names, floorSeq)
	tableBytes := 0
	for _, name := range names {
		if c := bytes.Count(wire, []byte(name)); c != 1 {
			t.Errorf("%q spelt %d times, want once", name, c)
		}
		tableBytes += 1 + len(name)
	}
	// Each floor costs its channel index and its floor: two bytes here.
	if want := sum + 5*len(batch) + constant - (1 + len(channel)) + tableBytes + 2*k; len(wire) != want {
		t.Errorf("%d items on %d channels: %d bytes, want %d", len(batch), k, len(wire), want)
	}
	env, err := decodeEnvelope(wire, new(envScratch), false)
	if err != nil || !sameEnvelope(env, envelope{From: from, Boot: []byte(boot), Batch: batch, FloorCh: names, FloorSeq: floorSeq}) {
		t.Fatalf("the %d-channel envelope decoded to %+v (%v)", k, env, err)
	}
}

// TestShapingStopsAtTheCap: a sender never writes what the receiver must
// refuse. Maps whose rebuilt bodies would pass maxRebuilt together travel
// whole, and the envelope decodes to what was sent.
func TestShapingStopsAtTheCap(t *testing.T) {
	big := msg.Map{"k": strings.Repeat("v", 100<<10)}
	var batch []envelopeItem
	for i := 0; i < 14; i++ {
		big["n"] = float64(i)
		body, err := msg.EncodeBinary(big)
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, envelopeItem{ID: uint64(1 + i), Seq: uint64(i), Channel: "a", Pub: uint64(1 + i), Body: body})
	}
	wire := encodeEnvelope(&envelope{From: "phone-1", Boot: []byte("boot"), Batch: batch})
	env, err := decodeEnvelope(wire, new(envScratch), false)
	if err != nil || !sameEnvelope(env, envelope{From: "phone-1", Boot: []byte("boot"), Batch: batch}) {
		t.Fatalf("%d maps of %d B decoded to %d items (%v)", len(batch), len(batch[0].Body), len(env.Batch), err)
	}
}

// TestEnvelopeCodecAllocatesNothing: in steady state, encoding an envelope
// into a recycled buffer and decoding it into recycled scratch allocate
// nothing.
func TestEnvelopeCodecAllocatesNothing(t *testing.T) {
	env := traceTestEnvelope()
	var tab chanTable
	var buf []byte
	sc := new(envScratch)
	op := func() {
		buf = appendEnvelope(buf[:0], &tab, env.From, string(env.Boot), env.Batch, env.Ack, env.FloorCh, env.FloorSeq)
		if _, err := decodeEnvelope(buf, sc, false); err != nil {
			t.Fatal(err)
		}
	}
	op()
	if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
		t.Errorf("encode + decode: %.1f allocs/op, want 0", allocs)
	}
}

// sameEnvelope compares envelopes by content: an absent and an empty slice
// are the same.
func sameEnvelope(a, b envelope) bool {
	if a.From != b.From || !bytes.Equal(a.Boot, b.Boot) || len(a.Batch) != len(b.Batch) ||
		!slices.Equal(a.Ack, b.Ack) || !slices.Equal(a.FloorCh, b.FloorCh) || !slices.Equal(a.FloorSeq, b.FloorSeq) {
		return false
	}
	for i := range a.Batch {
		x, y := &a.Batch[i], &b.Batch[i]
		if x.ID != y.ID || x.Seq != y.Seq || x.Channel != y.Channel || x.Pub != y.Pub || x.Trace != y.Trace ||
			!bytes.Equal(x.Body, y.Body) {
			return false
		}
	}
	return true
}

// envelopeFrom builds an envelope from arbitrary bytes: IDs, sequences,
// publication numbers, traces, acks and floors in any order and of any
// size, a handful of channels, bodies of any bytes and maps over a few keys.
func envelopeFrom(data []byte) envelope {
	next := func(n int) []byte {
		b := data[:min(n, len(data))]
		data = data[len(b):]
		return b
	}
	u64 := func() uint64 { // 1 to 8 little-endian bytes, the count first
		var w [8]byte
		if n := next(1); len(n) == 1 {
			copy(w[:], next(1+int(n[0]%8)))
		}
		return binary.LittleEndian.Uint64(w[:])
	}
	env := envelope{From: "phone-1", Boot: []byte("boot")}
	channels := []string{"a", "battery", "", "wifi-scan"}
	for len(data) > 0 {
		switch next(1)[0] % 5 {
		case 0:
			env.Batch = append(env.Batch, envelopeItem{
				ID: u64(), Seq: u64(), Channel: channels[u64()%4], Trace: u64(),
				Body: next(int(u64() % 200)),
			})
		case 4: // a map over a few keys, which later ones on its channel may shape
			m := msg.Map{}
			for i, k := range []string{"a", "level", "n"} {
				if v := u64(); v&1 != 0 || i == 0 {
					m[k] = float64(v >> 1 % 1000)
				}
			}
			body, _ := msg.EncodeBinary(m)
			env.Batch = append(env.Batch, envelopeItem{
				ID: u64(), Seq: u64(), Channel: channels[u64()%4], Pub: u64(), Body: body,
			})
		case 1: // a publication number of 0 is the explicit trace 0
			env.Batch = append(env.Batch, envelopeItem{
				ID: u64(), Seq: u64(), Channel: channels[u64()%4], Pub: u64(),
				Body: next(int(u64() % 200)),
			})
		case 2:
			env.Ack = append(env.Ack, u64())
		default:
			env.FloorCh = append(env.FloorCh, channels[u64()%4])
			env.FloorSeq = append(env.FloorSeq, u64())
		}
	}
	return env
}

// FuzzEnvelope: whatever the decoder accepts re-encodes to an envelope that
// decodes to the same thing, and re-encoding that is a fixed point; and an
// envelope of any content the encoder is given decodes to itself.
func FuzzEnvelope(f *testing.F) {
	for _, name := range []string{"data_envelope.hex", "ack_envelope.hex"} {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		framed, err := hex.DecodeString(strings.Join(strings.Fields(string(b)), ""))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(framed[len(frameHeader):])
	}
	f.Add(encodeEnvelope(traceTestEnvelope()))
	for _, batch := range [][]envelopeItem{
		{{ID: 1, Seq: 0, Channel: "a", Pub: 1}, {ID: 2, Seq: 1, Channel: "a", Pub: 2}},       // publication delta 0
		{{ID: 1, Seq: 0, Channel: "a", Pub: 1 << 63}, {ID: 2, Seq: 1, Channel: "a", Pub: 3}}, // a wrapping delta
		{{ID: 5, Seq: 0, Channel: "a", Trace: 0x0123456789abcdef}},                           // an explicit trace
	} {
		f.Add(encodeEnvelope(&envelope{From: "phone-1", Boot: []byte("boot"), Batch: batch}))
	}
	explicit := encodeEnvelope(&envelope{From: "phone-1", Batch: []envelopeItem{{ID: 5, Channel: "a", Trace: 1}}})
	f.Add(explicit[:len(explicit)-6]) // a truncated explicit trace
	// Shaped runs: maps with their channel's previous keys, interleaved
	// with another channel's, a map of other keys and a body that is no map.
	var run []envelopeItem
	for i, m := range []msg.Map{{"level": 1.0, "n": 1.0}, {"level": 2.0, "n": 2.0}, {"n": 3.0}, {"level": 4.0, "n": 4.0},
		{"level": 5.0, "n": 5.0}, {}, {}} {
		body, _ := msg.EncodeBinary(m)
		run = append(run, envelopeItem{ID: uint64(10 + i), Seq: uint64(i), Channel: []string{"a", "b"}[i%2], Pub: uint64(20 + i), Body: body})
	}
	run = append(run, envelopeItem{ID: 30, Seq: 9, Channel: "a", Trace: 3, Body: []byte{0x04, 0x02}})
	f.Add(encodeEnvelope(&envelope{From: "phone-1", Boot: []byte("boot"), Batch: run}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var tab chanTable
		if env, err := decodeEnvelope(data, new(envScratch), false); err == nil {
			wire := appendEnvelope(nil, &tab, env.From, string(env.Boot), env.Batch, env.Ack, env.FloorCh, env.FloorSeq)
			again, err := decodeEnvelope(wire, new(envScratch), false)
			if err != nil || !sameEnvelope(env, again) {
				t.Fatalf("accepted %x decodes to %+v, re-encoded to %x, which decodes to %+v (%v)", data, env, wire, again, err)
			}
			if re := encodeEnvelope(&again); !bytes.Equal(re, wire) {
				t.Fatalf("re-encoding is not a fixed point: %x then %x", wire, re)
			}
		}
		env := envelopeFrom(data)
		wire := appendEnvelope(nil, &tab, env.From, string(env.Boot), env.Batch, env.Ack, env.FloorCh, env.FloorSeq)
		if got, err := decodeEnvelope(wire, new(envScratch), false); err != nil || !sameEnvelope(env, got) {
			t.Fatalf("%+v encoded to %x, which decodes to %+v (%v)", env, wire, got, err)
		}
	})
}
