package msg

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestBinaryRoundTrip(t *testing.T) {
	values := []Value{
		nil,
		true,
		false,
		0.0,
		-1.0,
		42.0,
		-0.5,
		1e-9,
		123456789012345678.0, // past the integer cutoff: stays float
		999999999999999.0,    // |x| < 1e15: integer encoding
		math.MaxFloat64,
		"",
		"hello",
		"unicode ✓ and \"quotes\" and \x00 nul",
		[]Value{},
		[]Value{1.0, "two", nil, false, []Value{2.5}},
		Map{},
		Map{"wifi": Map{"rssi": -61.0, "ssid": "eduroam"}, "tags": []Value{"a", "b"}},
	}
	for _, v := range values {
		b, err := EncodeBinary(v)
		if err != nil {
			t.Fatalf("EncodeBinary(%#v): %v", v, err)
		}
		back, err := DecodeBinary(b)
		if err != nil {
			t.Fatalf("DecodeBinary(%#v): %v", v, err)
		}
		if !Equal(v, back) {
			t.Errorf("round-trip diverged:\n in: %#v\nout: %#v", v, back)
		}
	}
}

func TestBinaryNaNInfAsNull(t *testing.T) {
	b, err := EncodeBinary([]Value{math.NaN(), math.Inf(1), math.Inf(-1)})
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBinary(b)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(back, []Value{nil, nil, nil}) {
		t.Errorf("NaN/Inf = %#v, want nulls (JSON parity)", back)
	}
}

func TestBinaryDeterministic(t *testing.T) {
	m := Map{"zeta": 1.0, "alpha": 2.0, "mid": []Value{true, nil, "s"}}
	b1, err := EncodeBinary(m)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := EncodeBinary(Clone(m))
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Error("binary encoding not deterministic across clones")
	}
}

func TestBinarySmallerThanJSON(t *testing.T) {
	m := Map{
		"device":    "phone-0042",
		"channel":   "wifi-scan",
		"timestamp": 1722870000.0,
		"readings":  []Value{-61.0, -72.0, -55.0, -80.0},
		"charging":  false,
	}
	jb, err := EncodeJSON(m)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := EncodeBinary(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(bb) >= len(jb) {
		t.Errorf("binary (%d bytes) not smaller than JSON (%d bytes)", len(bb), len(jb))
	}
}

// Wire bodies are binary only: JSON text handed to either wire decoder is
// malformed input, not a second codec.
func TestDecodeRejectsJSON(t *testing.T) {
	for _, in := range []string{`{"a":1}`, `[1]`, `1`, `-2.5`, `"s"`, `true`, `null`, ` {"a":1}`, ``} {
		if _, err := DecodeBinary([]byte(in)); !errors.Is(err, ErrBinary) {
			t.Errorf("DecodeBinary(%q) = %v, want ErrBinary", in, err)
		}
		if _, err := DecodeFrozen([]byte(in)); !errors.Is(err, ErrBinary) {
			t.Errorf("DecodeFrozen(%q) = %v, want ErrBinary", in, err)
		}
	}
}

func TestBinaryDecodeErrors(t *testing.T) {
	good, _ := EncodeBinary(Map{"a": []Value{1.0, "x"}})
	cases := map[string][]byte{
		"empty":              {},
		"unknown tag":        {0x7f},
		"truncated float":    {tagFloat, 1, 2, 3},
		"bad varint":         {tagInt, 0x80},
		"truncated string":   {tagString, 10, 'a', 'b'},
		"array count bomb":   {tagArray, 0xff, 0xff, 0xff, 0xff, 0x07, tagNull},
		"map count bomb":     {tagMap, 0xff, 0xff, 0xff, 0xff, 0x07},
		"string length bomb": {tagString, 0xff, 0xff, 0xff, 0xff, 0x07, 'a'},
		"trailing data":      append(append([]byte{}, good...), tagNull),
		"map missing value":  {tagMap, 1, 1, 'k'},
	}
	for name, in := range cases {
		if _, err := DecodeBinary(in); err == nil {
			t.Errorf("%s: DecodeBinary(%v) succeeded, want error", name, in)
		}
	}
	// Truncate the good encoding at every prefix: none may panic, all but
	// the full length must error.
	for i := 0; i < len(good); i++ {
		if _, err := DecodeBinary(good[:i]); err == nil {
			t.Errorf("prefix of length %d decoded successfully", i)
		}
	}
}

func TestBinaryDepthLimit(t *testing.T) {
	// 20k nested arrays: [ [ [ ... null ... ] ] ] — two header bytes per
	// level, well past maxDepth. Must error, not overflow the stack.
	depth := maxDepth + 10
	buf := make([]byte, 0, depth*2+1)
	for i := 0; i < depth; i++ {
		buf = append(buf, tagArray, 1)
	}
	buf = append(buf, tagNull)
	if _, err := DecodeBinary(buf); err == nil {
		t.Error("DecodeBinary accepted nesting past the depth limit")
	}
	// encoding/json enforces the same bound for DecodeJSON.
	js := strings.Repeat("[", depth) + "null" + strings.Repeat("]", depth)
	if _, err := DecodeJSON([]byte(js)); err == nil {
		t.Error("DecodeJSON accepted nesting past the depth limit")
	}
}

// TestPropertyBinaryJSONEquivalence: for random message values, the two
// codecs agree — decoding the binary form and decoding the JSON form give
// Equal values.
func TestPropertyBinaryJSONEquivalence(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(Map{"v": randomValue(r, 3)})
		},
	}
	prop := func(m Map) bool {
		jb, err := EncodeJSON(m)
		if err != nil {
			return false
		}
		bb, err := EncodeBinary(m)
		if err != nil {
			return false
		}
		jv, err := DecodeJSON(jb)
		if err != nil {
			return false
		}
		bv, err := DecodeBinary(bb)
		if err != nil {
			return false
		}
		return Equal(jv, bv) && Equal(m, bv)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
