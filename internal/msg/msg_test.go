package msg

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestCloneIndependence(t *testing.T) {
	orig := Map{"list": []Value{1.0, Map{"x": "y"}}, "n": 2.0}
	clone, ok := Clone(orig).(Map)
	if !ok {
		t.Fatal("clone is not a Map")
	}
	if !Equal(orig, clone) {
		t.Fatal("clone differs from original")
	}
	clone["n"] = 99.0
	clone["list"].([]Value)[1].(Map)["x"] = "z"
	if orig["n"].(float64) != 2.0 {
		t.Error("mutating clone changed original scalar")
	}
	if orig["list"].([]Value)[1].(Map)["x"].(string) != "y" {
		t.Error("mutating clone changed nested original")
	}
}

func TestEqualBasics(t *testing.T) {
	tests := []struct {
		a, b Value
		want bool
	}{
		{nil, nil, true},
		{nil, 0.0, false},
		{1.0, 1.0, true},
		{1.0, 2.0, false},
		{1.0, "1", false},
		{"a", "a", true},
		{true, true, true},
		{true, false, false},
		{math.NaN(), math.NaN(), true},
		{[]Value{1.0}, []Value{1.0}, true},
		{[]Value{1.0}, []Value{1.0, 2.0}, false},
		{Map{"a": 1.0}, Map{"a": 1.0}, true},
		{Map{"a": 1.0}, Map{"b": 1.0}, false},
		{Map{"a": 1.0}, Map{"a": 1.0, "b": 2.0}, false},
	}
	for _, tt := range tests {
		if got := Equal(tt.a, tt.b); got != tt.want {
			t.Errorf("Equal(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestEncodeJSONDeterministic(t *testing.T) {
	m := Map{"zeta": 1.0, "alpha": 2.0, "mid": []Value{true, nil, "s"}}
	b1, err := EncodeJSON(m)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := EncodeJSON(m)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Errorf("non-deterministic encoding: %s vs %s", b1, b2)
	}
	want := `{"alpha":2,"mid":[true,null,"s"],"zeta":1}`
	if string(b1) != want {
		t.Errorf("EncodeJSON = %s, want %s", b1, want)
	}
}

func TestEncodeJSONIntegersCompact(t *testing.T) {
	b, err := EncodeJSON(Map{"n": 60000.0, "f": 0.5})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"f":0.5,"n":60000}`
	if string(b) != want {
		t.Errorf("EncodeJSON = %s, want %s", b, want)
	}
}

func TestEncodeJSONNaNInf(t *testing.T) {
	b, err := EncodeJSON([]Value{math.NaN(), math.Inf(1), math.Inf(-1)})
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "[null,null,null]" {
		t.Errorf("EncodeJSON = %s, want [null,null,null]", b)
	}
}

// TestAppendJSONBytes pins the encoder's output for the values where a
// rewrite is most likely to drift: the number formats and their switch-overs
// (ECMAScript's Number::toString, see AppendNumber),
// the non-finite numbers, negative zero, and strings that need escaping.
func TestAppendJSONBytes(t *testing.T) {
	for _, tt := range []struct {
		v    Value
		want string
	}{
		{math.NaN(), "null"},
		{math.Inf(1), "null"},
		{math.Inf(-1), "null"},
		{math.Copysign(0, -1), "0"},
		{-3.0, "-3"},
		{999999999999999.0, "999999999999999"},
		{1e15, "1000000000000000"},
		{-1e15, "-1000000000000000"},
		{1e20, "100000000000000000000"},
		{1e21, "1e+21"},
		{0.1, "0.1"},
		{1234567.5, "1234567.5"},
		{0.00001, "0.00001"},
		{1e-6, "0.000001"},
		{1.5e-7, "1.5e-7"},
		{5e-324, "5e-324"},
		{-1.5e300, "-1.5e+300"},
		{"plain", `"plain"`},
		{"q\"b\\s", `"q\"b\\s"`},
		{"nl\n\ttab\x01", `"nl\n\ttab\u0001"`},
		{"<é>\u2028", "\"\\u003cé\\u003e\\u2028\""},
		// <, > and & are escaped whether or not anything else in the
		// string needs it.
		{"a<b", `"a\u003cb"`},
		{"a>b", `"a\u003eb"`},
		{"a&b", `"a\u0026b"`},
		{"a<b\n", `"a\u003cb\n"`},
		{"a&b\"", `"a\u0026b\""`},
		{"\b\f\x1f\x7f", "\"\\b\\f\\u001f\x7f\""},
		{"x\u2029y", `"x\u2029y"`},
		{"bad\xffutf8\xc3", `"bad\ufffdutf8\ufffd"`},
		{Map{"k\"": []Value{true, false, nil, Map{}}}, `{"k\"":[true,false,null,{}]}`},
	} {
		got, err := AppendJSON([]byte("x"), tt.v)
		if err != nil {
			t.Errorf("AppendJSON(%v): %v", tt.v, err)
			continue
		}
		if string(got) != "x"+tt.want {
			t.Errorf("AppendJSON(x, %v) = %s, want x%s", tt.v, got, tt.want)
		}
	}
	// Strings follow encoding/json's rule exactly, allocating nothing.
	for _, str := range []string{"", "plain", "<&>", "\u00e9\u2028\u2029\U0001F600", "\x00\x1f\x7f\b\f\n\r\t\"\\", "\xff\xfe", "\xe2\x80", "a\xe2\x80\xa8"} {
		want, _ := json.Marshal(str)
		if got, _ := AppendJSON(nil, str); string(got) != string(want) {
			t.Errorf("AppendJSON(%q) = %s, encoding/json %s", str, got, want)
		}
	}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { buf, _ = AppendJSON(buf[:0], "a<b\n\xff\u2028") }); n != 0 {
		t.Errorf("escaping a string: %v allocs, want 0", n)
	}
	if _, err := AppendJSON(nil, Map{"bad": 1}); !errors.Is(err, ErrUnsupportedValue) {
		t.Errorf("AppendJSON(int) error = %v, want ErrUnsupportedValue", err)
	}
	// More keys than the stack buffer holds still come out sorted.
	wide := Map{}
	var want []string
	for i := 0; i < 40; i++ {
		wide[fmt.Sprintf("k%02d", i)] = float64(i)
		want = append(want, fmt.Sprintf(`"k%02d":%d`, i, i))
	}
	if got, _ := AppendJSON(nil, Freeze(wide)); string(got) != "{"+strings.Join(want, ",")+"}" {
		t.Errorf("40-key map = %s", got)
	}
}

func TestDecodeJSON(t *testing.T) {
	v, err := DecodeJSON([]byte(`{"a":[1,2.5,"x",null,true],"b":{"c":-3}}`))
	if err != nil {
		t.Fatal(err)
	}
	want := Map{
		"a": []Value{1.0, 2.5, "x", nil, true},
		"b": Map{"c": -3.0},
	}
	if !Equal(v, want) {
		t.Errorf("DecodeJSON = %#v, want %#v", v, want)
	}
}

func TestDecodeJSONEmptyArray(t *testing.T) {
	v, err := DecodeJSON([]byte(`[]`))
	if err != nil {
		t.Fatal(err)
	}
	arr, ok := v.([]Value)
	if !ok || len(arr) != 0 {
		t.Errorf("DecodeJSON([]) = %#v, want empty []Value", v)
	}
}

func TestDecodeJSONErrors(t *testing.T) {
	for _, in := range []string{"", "{", `{"a":}`, "[1,2] extra", "nope"} {
		if _, err := DecodeJSON([]byte(in)); err == nil {
			t.Errorf("DecodeJSON(%q) succeeded, want error", in)
		}
	}
}

func TestGetPaths(t *testing.T) {
	m := Map{"wifi": Map{"rssi": -70.0, "ssid": "eduroam"}, "flat": 1.0}
	if v, ok := Get(m, "wifi.rssi"); !ok || v.(float64) != -70.0 {
		t.Errorf("Get(wifi.rssi) = %v, %v", v, ok)
	}
	if _, ok := Get(m, "wifi.missing"); ok {
		t.Error("Get(wifi.missing) found")
	}
	if _, ok := Get(m, "flat.sub"); ok {
		t.Error("Get(flat.sub) found through scalar")
	}
	if s := GetString(m, "wifi.ssid"); s != "eduroam" {
		t.Errorf("GetString = %q", s)
	}
	if s := GetString(m, "wifi.rssi"); s != "" {
		t.Errorf("GetString on number = %q, want empty", s)
	}
	if f, ok := GetNumber(m, "flat"); !ok || f != 1.0 {
		t.Errorf("GetNumber(flat) = %v, %v", f, ok)
	}
	if _, ok := GetNumber(m, "wifi.ssid"); ok {
		t.Error("GetNumber on string succeeded")
	}
}

// randomValue builds a random message value of bounded depth for property
// tests.
func randomValue(r *rand.Rand, depth int) Value {
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return nil
		case 1:
			return r.Intn(2) == 0
		case 2:
			return math.Trunc(r.NormFloat64() * 1000)
		default:
			return randomString(r)
		}
	}
	switch r.Intn(6) {
	case 0:
		return nil
	case 1:
		return r.Intn(2) == 0
	case 2:
		return float64(r.Intn(1<<20)) / 8
	case 3:
		return randomString(r)
	case 4:
		n := r.Intn(4)
		out := make([]Value, n)
		for i := range out {
			out[i] = randomValue(r, depth-1)
		}
		return out
	default:
		n := r.Intn(4)
		out := Map{}
		for i := 0; i < n; i++ {
			out[randomString(r)] = randomValue(r, depth-1)
		}
		return out
	}
}

func randomString(r *rand.Rand) string {
	alpha := []rune("abcdefgh_0123 é√")
	n := r.Intn(8)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteRune(alpha[r.Intn(len(alpha))])
	}
	return sb.String()
}

func TestPropertyJSONRoundTrip(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(Map{"v": randomValue(r, 3)})
		},
	}
	prop := func(m Map) bool {
		b, err := EncodeJSON(m)
		if err != nil {
			return false
		}
		back, err := DecodeJSON(b)
		if err != nil {
			return false
		}
		return Equal(m, back)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropertyCloneEqual(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(Map{"v": randomValue(r, 3)})
		},
	}
	prop := func(m Map) bool { return Equal(m, Clone(m)) }
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropertyEncodeDeterministic(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 100,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(Map{"v": randomValue(r, 3), "w": randomValue(r, 2)})
		},
	}
	prop := func(m Map) bool {
		a, err1 := EncodeJSON(m)
		b, err2 := EncodeJSON(Clone(m))
		return err1 == nil && err2 == nil && string(a) == string(b)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestAppendNumberIsJSONFloat: AppendNumber writes every finite number but
// -0 as encoding/json does, whose float rule is ECMAScript's; -0 is "0".
func TestAppendNumberIsJSONFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(f float64) {
		if math.IsNaN(f) || math.IsInf(f, 0) || (f == 0 && math.Signbit(f)) {
			return
		}
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendNumber(nil, f); string(got) != string(want) {
			t.Errorf("AppendNumber(%v) = %s, want %s", f, got, want)
		}
	}
	for _, f := range []float64{0, 1, -1, 0.5, 1e-7, 1e-6, 9.99e-7, 1e15, 1e20, 1e21, 123e300, math.MaxFloat64, math.SmallestNonzeroFloat64} {
		check(f)
		check(-f)
	}
	for i := 0; i < 20000; i++ {
		check(math.Float64frombits(rng.Uint64()))            // any exponent
		check(math.Ldexp(rng.Float64(), rng.Intn(160)-80))   // around the switch-overs
		check(float64(rng.Int63n(1<<53)) * math.Pow(10, -6)) // fixed with a fraction
	}
	if got := AppendNumber(nil, math.Copysign(0, -1)); string(got) != "0" {
		t.Errorf("AppendNumber(-0) = %s", got)
	}
	for f, want := range map[float64]string{math.NaN(): "NaN", math.Inf(1): "Infinity", math.Inf(-1): "-Infinity"} {
		if got := AppendNumber(nil, f); string(got) != want {
			t.Errorf("AppendNumber(%v) = %s, want %s", f, got, want)
		}
	}
}
