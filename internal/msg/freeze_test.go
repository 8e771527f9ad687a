package msg

import (
	"reflect"
	"testing"
)

func TestFreezeBasics(t *testing.T) {
	orig := Map{"n": 1.0, "nest": Map{"x": "y"}}
	fz := Freeze(orig)
	if !IsFrozen(fz) {
		t.Fatal("Freeze result is not frozen")
	}
	if IsFrozen(orig) {
		t.Error("Freeze mutated the caller's map")
	}
	if !Equal(orig, fz) {
		t.Error("frozen copy differs from original")
	}
	// Re-freezing is a hit: same map back, no copy.
	fz2 := Freeze(fz)
	if reflect.ValueOf(fz2).Pointer() != reflect.ValueOf(fz).Pointer() {
		t.Error("Freeze of a frozen map did not return it unchanged")
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

func TestFreezeOwned(t *testing.T) {
	m := Map{"a": 1.0}
	fz := FreezeOwned(m)
	if reflect.ValueOf(fz).Pointer() != reflect.ValueOf(m).Pointer() {
		t.Error("FreezeOwned did not mark in place")
	}
	if !IsFrozen(m) {
		t.Error("FreezeOwned did not freeze")
	}
	if FreezeOwned(nil) != nil {
		t.Error("FreezeOwned(nil) != nil")
	}
}

func TestThaw(t *testing.T) {
	fz := Freeze(Map{"n": 1.0, "nest": Map{"x": "y"}})
	th := Thaw(fz)
	if IsFrozen(th) {
		t.Fatal("Thaw result still frozen")
	}
	th["n"] = 2.0
	th["nest"].(Map)["x"] = "z"
	if fz["n"].(float64) != 1.0 || fz["nest"].(Map)["x"].(string) != "y" {
		t.Error("mutating thawed copy leaked into frozen original")
	}
	// Thawing a mutable map is the identity.
	m := Map{"a": 1.0}
	if reflect.ValueOf(Thaw(m)).Pointer() != reflect.ValueOf(m).Pointer() {
		t.Error("Thaw of a mutable map copied it")
	}
	if Thaw(nil) != nil {
		t.Error("Thaw(nil) != nil")
	}
}

func TestLenAndKeysSkipMarker(t *testing.T) {
	fz := Freeze(Map{"b": 1.0, "a": 2.0})
	if Len(fz) != 2 {
		t.Errorf("Len(frozen) = %d, want 2", Len(fz))
	}
	keys := Keys(fz)
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Errorf("Keys(frozen) = %v, want [a b]", keys)
	}
	if Len(Map{}) != 0 || len(Keys(Map{})) != 0 {
		t.Error("Len/Keys of empty map nonzero")
	}
}

// TestFreezeInvisibleToContent pins the core invariant: freezing must not
// change what any observer of message CONTENT sees — equality, clones,
// normalization, and both codecs behave identically on frozen and unfrozen
// trees.
func TestFreezeInvisibleToContent(t *testing.T) {
	orig := Map{"wifi": Map{"rssi": -61.0}, "tags": []Value{"a", "b"}}
	fz := Freeze(orig)

	if !Equal(orig, fz) || !Equal(fz, orig) {
		t.Error("Equal distinguishes frozen from unfrozen")
	}
	cl, _ := Clone(fz).(Map)
	if IsFrozen(cl) {
		t.Error("Clone of a frozen map is still frozen")
	}
	n, err := Normalize(fz)
	if err != nil {
		t.Fatalf("Normalize(frozen): %v", err)
	}
	if IsFrozen(n.(Map)) {
		t.Error("Normalize kept the freeze marker")
	}

	j1, err1 := EncodeJSON(orig)
	j2, err2 := EncodeJSON(fz)
	if err1 != nil || err2 != nil || string(j1) != string(j2) {
		t.Errorf("JSON encodings differ: %q vs %q (%v, %v)", j1, j2, err1, err2)
	}
	b1, err1 := EncodeBinary(orig)
	b2, err2 := EncodeBinary(fz)
	if err1 != nil || err2 != nil || string(b1) != string(b2) {
		t.Errorf("binary encodings differ (%v, %v)", err1, err2)
	}
}

// TestHostileMarkerKey: wire input that happens to contain the marker KEY is
// an ordinary entry — it cannot forge frozen-ness (the marker's value type
// is unexported) and it survives both codecs untouched.
func TestHostileMarkerKey(t *testing.T) {
	m := Map{"\x00frozen": 1.0, "a": 2.0}
	if IsFrozen(m) {
		t.Fatal("plain entry under the marker key counted as frozen")
	}
	if Len(m) != 2 || len(Keys(m)) != 2 {
		t.Error("Len/Keys dropped a non-marker entry under the marker key")
	}
	for _, codec := range []struct {
		enc func(Value) ([]byte, error)
		dec func([]byte) (Value, error)
	}{{EncodeJSON, DecodeJSON}, {EncodeBinary, DecodeBinary}} {
		b, err := codec.enc(m)
		if err != nil {
			t.Fatal(err)
		}
		back, err := codec.dec(b)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(m, back) {
			t.Errorf("hostile marker key did not round-trip: %#v", back)
		}
	}
	// Freeze refuses to overwrite the hostile entry: the result keeps the
	// content but is NOT frozen (callers fall back to per-subscriber clones).
	fz := Freeze(m)
	if !Equal(m, fz) {
		t.Error("freeze of hostile-key map lost content")
	}
	if IsFrozen(fz) {
		t.Error("freeze of hostile-key map claims frozen despite collision")
	}
	if IsFrozen(FreezeOwned(Map{"\x00frozen": 1.0})) {
		t.Error("FreezeOwned froze over a colliding entry")
	}
}
