package msg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"pogo/internal/alloctest"
)

func TestFreezeBasics(t *testing.T) {
	orig := Map{"n": 1.0, "nest": Map{"x": "y"}}
	fz := Freeze(orig)
	if !Equal(orig, fz) {
		t.Error("frozen copy differs from original")
	}
	if reflect.ValueOf(fz).Pointer() == reflect.ValueOf(orig).Pointer() {
		t.Error("Freeze returned the caller's map")
	}
	if Freeze(nil) != nil {
		t.Error("Freeze(nil) != nil")
	}
}

func TestFreezeIsolation(t *testing.T) {
	orig := Map{"n": 1.0, "nest": Map{"x": "y"}}
	fz := Freeze(orig)
	// Publisher keeps mutating its own map after the freeze; the frozen
	// snapshot must not see it.
	orig["n"] = 99.0
	orig["nest"].(Map)["x"] = "z"
	if fz["n"].(float64) != 1.0 {
		t.Error("mutating original changed frozen scalar")
	}
	if fz["nest"].(Map)["x"].(string) != "y" {
		t.Error("mutating original changed frozen nested map")
	}
}

// TestRawMap: Map builds a private tree a writer may change without the Raw
// or a second tree seeing it.
func TestRawMap(t *testing.T) {
	r := mustEncode(t, Map{"n": 1.0, "nest": Map{"x": "y"}})
	th := r.Map()
	th["n"] = 2.0
	th["nest"].(Map)["x"] = "z"
	if again := r.Map(); again["n"].(float64) != 1.0 || again["nest"].(Map)["x"].(string) != "y" {
		t.Error("writing one tree leaked into the Raw")
	}
	if (Raw{}).Map() != nil || mustEncode(t, []Value{1.0}).Map() != nil {
		t.Error("Map of a zero Raw or of an array is not nil")
	}
}

// TestFreezeInvisibleToContent pins what replaced the freeze marker: a Raw
// is a message like any other to every observer of content — equality,
// clones, normalization, both codecs — alone or inside a tree.
func TestFreezeInvisibleToContent(t *testing.T) {
	orig := Map{"wifi": Map{"rssi": -61.0}, "tags": []Value{"a", "b"}}
	r := mustEncode(t, orig)

	if !Equal(orig, r) || !Equal(r, orig) || !Equal(r, mustEncode(t, orig)) {
		t.Error("Equal distinguishes a Raw from its tree")
	}
	if Equal(r, mustEncode(t, Map{"wifi": Map{"rssi": -62.0}, "tags": []Value{"a", "b"}})) {
		t.Error("Equal matched different Raws")
	}
	if c := Clone(r); c != Value(r) {
		t.Error("Clone copied an immutable Raw")
	}
	wrapped := Map{"inner": r}
	for _, pair := range [][2]Value{{orig, r}, {Map{"inner": orig}, wrapped}} {
		j1, err1 := EncodeJSON(pair[0])
		j2, err2 := EncodeJSON(pair[1])
		if err1 != nil || err2 != nil || string(j1) != string(j2) {
			t.Errorf("JSON encodings differ: %q vs %q (%v, %v)", j1, j2, err1, err2)
		}
		b1, err1 := EncodeBinary(pair[0])
		b2, err2 := EncodeBinary(pair[1])
		if err1 != nil || err2 != nil || string(b1) != string(b2) {
			t.Errorf("binary encodings differ (%v, %v)", err1, err2)
		}
	}
}

// TestHostileMarkerKey: the key the freeze marker once used is an ordinary
// key, and survives both codecs and a Raw untouched.
func TestHostileMarkerKey(t *testing.T) {
	m := Map{"\x00frozen": 1.0, "a": 2.0}
	for _, codec := range []struct {
		enc func(Value) ([]byte, error)
		dec func([]byte) (Value, error)
	}{{EncodeJSON, DecodeJSON}, {EncodeBinary, DecodeBinary}, {EncodeBinary, DecodeFrozen}} {
		b, err := codec.enc(m)
		if err != nil {
			t.Fatal(err)
		}
		back, err := codec.dec(b)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(m, back) {
			t.Errorf("marker key did not round-trip: %#v", back)
		}
	}
	if r := mustEncode(t, m); r.Len() != 2 {
		t.Errorf("Raw holds %d entries, want 2", r.Len())
	}
}

// TestParseRawRejectsNonCanonical: every body the encoder could not have
// written is refused, though the tree decoder accepts most of them.
func TestParseRawRejectsNonCanonical(t *testing.T) {
	cases := map[string][]byte{
		"empty":             {},
		"trailing":          {tagNull, tagNull},
		"unsorted keys":     {tagMap, 2, 1, 'b', tagNull, 1, 'a', tagNull},
		"duplicate keys":    {tagMap, 2, 1, 'a', tagNull, 1, 'a', tagTrue},
		"invalid UTF-8":     {tagString, 2, 0xff, 0xfe},
		"invalid UTF-8 key": {tagMap, 1, 1, 0xff, tagNull},
		"long varint":       {tagInt, 0x82, 0x00},
		"long count":        {tagArray, 0x80, 0x00},
		"long length":       {tagString, 0x81, 0x00, 'a'},
		"NaN bits":          {tagFloat, 0x7f, 0xf8, 0, 0, 0, 0, 0, 1},
		"Inf bits":          {tagFloat, 0x7f, 0xf0, 0, 0, 0, 0, 0, 0},
		"integral float":    {tagFloat, 0x40, 0x45, 0, 0, 0, 0, 0, 0},
		"negative zero":     {tagFloat, 0x80, 0, 0, 0, 0, 0, 0, 0},
		"int past 1e15":     binary.AppendVarint([]byte{tagInt}, 1e15),
		"unknown tag":       {0x7f},
	}
	for name, in := range cases {
		if _, err := ParseRaw(in); !errors.Is(err, errBinary) {
			t.Errorf("%s: ParseRaw(%x) = %v, want ErrBinary", name, in, err)
		}
	}
	good := []byte{tagMap, 2, 1, 'a', tagInt, 2, 1, 'b', tagString, 1, 'x'}
	r, err := ParseRaw(good)
	if err != nil || !bytes.Equal(r.Bytes(), good) {
		t.Fatalf("ParseRaw(%x) = %x, %v", good, r.Bytes(), err)
	}
}

// TestEncodeCoerces: the encoding holds what a remote subscriber has always
// seen — NaN and infinities as null, -0 as 0, invalid UTF-8 as U+FFFD — and
// a map whose keys collide once repaired does not encode.
func TestEncodeCoerces(t *testing.T) {
	m := Map{"nan": math.NaN(), "inf": math.Inf(-1), "z": math.Copysign(0, -1), "s\xff": "a\xffb"}
	r := mustEncode(t, m)
	want := Map{"nan": nil, "inf": nil, "z": 0.0, "s�": "a�b"}
	if got := r.Map(); !reflect.DeepEqual(got, want) || math.Signbit(got["z"].(float64)) {
		t.Errorf("Encode coerced to %#v, want %#v", got, want)
	}
	if b, _ := EncodeBinary(m); cap(b) != len(b) {
		t.Errorf("EncodeBinary made %d bytes for a %d-byte encoding", cap(b), len(b))
	}
	if _, err := Encode(Map{"\xff": 1.0, "\xfe": 2.0}); !errors.Is(err, ErrUnsupportedValue) {
		t.Errorf("colliding repaired keys: %v, want ErrUnsupportedValue", err)
	}
	// Past the 16 entries the encoder sorts on its stack, the same holds:
	// the keys in order, and a collision refused.
	big := Map{}
	for i := 0; i < 40; i++ {
		big[fmt.Sprintf("k%02d", 39-i)] = float64(i)
	}
	r = mustEncode(t, big)
	if _, err := ParseRaw(r.Bytes()); err != nil || !reflect.DeepEqual(r.Map(), big) {
		t.Errorf("a 40-entry map encoded to %v (%v)", r.Map(), err)
	}
	big["\xff"], big["\xfe"] = 1.0, 2.0
	if _, err := Encode(big); !errors.Is(err, ErrUnsupportedValue) {
		t.Errorf("colliding repaired keys among 42: %v, want ErrUnsupportedValue", err)
	}
	if _, err := Encode(Map{"bad": 1}); !errors.Is(err, ErrUnsupportedValue) {
		t.Errorf("int value: %v, want ErrUnsupportedValue", err)
	}
}

// TestRawAccessors reads fields, paths, entries and elements straight from
// the bytes.
func TestRawAccessors(t *testing.T) {
	r := mustEncode(t, Map{
		"wifi":  Map{"rssi": -61.0, "ssid": "eduroam"},
		"aps":   []Value{Map{"b": "x"}, 2.5, nil},
		"level": 80.0,
		"ok":    true,
	})
	if f, ok := GetNumber(r, "wifi.rssi"); !ok || f != -61 {
		t.Errorf("GetNumber(wifi.rssi) = %v, %v", f, ok)
	}
	if s := GetString(r, "wifi.ssid"); s != "eduroam" {
		t.Errorf("GetString(wifi.ssid) = %q", s)
	}
	if _, ok := GetNumber(r, "wifi.ssid"); ok {
		t.Error("GetNumber read a string")
	}
	for _, p := range []string{"nope", "wifi.nope", "level.x", "aps.b"} {
		if v, ok := Get(r, p); ok {
			t.Errorf("Get(%s) = %v, want absent", p, v)
		}
	}
	if v, ok := Get(Map{"outer": r}, "outer.wifi.ssid"); !ok || v != "eduroam" {
		t.Errorf("Get through a tree into a Raw = %v, %v", v, ok)
	}
	if r.Len() != 4 || !r.IsMap() || r.IsArray() {
		t.Errorf("Len %d IsMap %v IsArray %v", r.Len(), r.IsMap(), r.IsArray())
	}
	var keys []string
	var vals []Value
	r.Range(func(k string, v Value) { keys, vals = append(keys, k), append(vals, v) })
	if !reflect.DeepEqual(keys, []string{"aps", "level", "ok", "wifi"}) {
		t.Errorf("entry order %v", keys)
	}
	aps, _ := vals[0].(Raw)
	var elems []Value
	aps.Range(func(k string, v Value) {
		if k != "" {
			t.Errorf("array element with key %q", k)
		}
		elems = append(elems, v)
	})
	if len(elems) != 3 || !Equal(elems[0], Map{"b": "x"}) || elems[1] != 2.5 || elems[2] != nil {
		t.Errorf("elements %#v", elems)
	}
}

// TestRawAllocations: reading a Raw allocates nothing beyond boxing a number
// the cache has not seen, and Encode allocates exactly its buffer.
func TestRawAllocations(t *testing.T) {
	m := Map{"n": 7.0, "level": 80.0, "voltage": 3.9, "charging": true}
	if n := testing.AllocsPerRun(100, func() { _, _ = Encode(m) }); n != 1 {
		t.Errorf("Encode: %v allocs, want 1", n)
	}
	r := mustEncode(t, m)
	b := r.Bytes()
	var sink []byte
	n := testing.AllocsPerRun(100, func() {
		_, _ = ParseRaw(b)
		_, _ = GetNumber(r, "voltage")
		_ = GetString(r, "x")
		_ = r.Len()
		sink, _ = AppendJSON(sink[:0], r)
		sink, _ = AppendBinary(sink[:0], r)
	})
	if n != 0 {
		t.Errorf("reads: %v allocs, want 0", n)
	}

	// The codec's hot-path rows, on a tree: encoding into a reused buffer
	// and validating the bytes allocate nothing; EncodeJSON allocates the
	// buffer it returns.
	encodeBinary, decodeBinary, encodeJSON := codecOps(sensorReading())
	for _, op := range []struct {
		name string
		f    func()
		want float64
	}{{"AppendBinary", encodeBinary, 0}, {"ParseRaw", decodeBinary, 0}, {"EncodeJSON", encodeJSON, 1}} {
		if n := testing.AllocsPerRun(100, op.f); n != op.want {
			t.Errorf("%s of a tree: %v allocs, want %v", op.name, n, op.want)
		}
	}
	if b := alloctest.BytesPerRun(100, encodeJSON); b > encodeJSONBytesCeiling {
		t.Errorf("EncodeJSON of a tree: %v B, ceiling %d", b, encodeJSONBytesCeiling)
	}
}

// encodeJSONBytesCeiling is EncodeJSON's 256-byte buffer plus 64 B: a bytes
// figure fails only when it grows by more than 15 % and more than 64 B.
const encodeJSONBytesCeiling = 256 + 64

// sensorReading is what a phone's battery or wifi script publishes every few
// seconds.
func sensorReading() Map {
	return Map{
		"voltage":   4.1,
		"level":     0.93,
		"plugged":   false,
		"timestamp": 1.7e12,
		"aps": []Value{
			Map{"bssid": "02:1b:77:49:54:fd", "rssi": -61.0},
			Map{"bssid": "02:1b:77:1f:02:aa", "rssi": -74.0},
		},
	}
}

// codecOps returns the codec calls that TestRawAllocations pins and the
// codec benchmarks time, on m: its binary encoding into a reused buffer, the
// receive path's validation of those bytes, which builds no tree, and its
// JSON encoding, kept as a caller keeps it.
func codecOps(m Map) (encodeBinary, decodeBinary, encodeJSON func()) {
	wire, err := AppendBinary(nil, m)
	if err != nil {
		panic(err)
	}
	var buf []byte
	check := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	return func() { buf, err = AppendBinary(buf[:0], m); check(err) },
		func() { _, err = ParseRaw(wire); check(err) },
		func() { keptJSON, err = EncodeJSON(m); check(err) }
}

// keptJSON holds what the EncodeJSON op returns, as a caller would.
var keptJSON []byte

func mustEncode(t *testing.T, v Value) Raw {
	t.Helper()
	r, err := Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	return r
}
