package msg_test

import (
	"bytes"
	"sort"
	"strings"
	"testing"
	"time"

	"pogo/internal/msg"
	"pogo/internal/script"
)

// FuzzRaw is the differential check of reading a message from its bytes
// against reading the tree DecodeBinary builds from them. ParseRaw must
// accept a body exactly when DecodeBinary does and re-encoding the tree gives
// the same bytes back; and for an accepted body, everything read from the Raw
// must match the tree: its JSON byte for byte, its binary encoding, every
// dotted path through its maps, its entries in order, and what a script sees
// — json(m), the for-in key order, and json() of a copy the script builds
// field by field.
func FuzzRaw(f *testing.F) {
	for _, v := range []msg.Value{
		nil, true, 42.0, -0.5, 1e21, "hello", "<&> ",
		[]msg.Value{1.0, "two", nil, false, msg.Map{"x": []msg.Value{}}},
		msg.Map{},
		msg.Map{"wifi": msg.Map{"rssi": -61.0, "ssid": "eduroam"}, "tags": []msg.Value{"a", "b"}, "a.b": 1.0},
		msg.Map{"n": 7.0, "level": 80.0, "voltage": 3.912, "charging": true},
	} {
		b, err := msg.EncodeBinary(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// Bodies the encoder never writes: unsorted and duplicate keys, invalid
	// UTF-8, a long varint, a NaN.
	f.Add([]byte{0x07, 2, 1, 'b', 0x00, 1, 'a', 0x00})
	f.Add([]byte{0x07, 2, 1, 'a', 0x00, 1, 'a', 0x02})
	f.Add([]byte{0x05, 2, 0xff, 0xfe})
	f.Add([]byte{0x04, 0x82, 0x00})
	f.Add([]byte{0x03, 0x7f, 0xf8, 0, 0, 0, 0, 0, 1})

	host := &fuzzHost{}
	s, err := script.New("fuzz.js", `
function keys(v) { var out = []; for (var k in v) { out.push(k); } return out.join('\u0000'); }
function copy(v) {
  if (typeof v !== 'object' || v === null) { return v; }
  if (Array.isArray(v)) {
    var a = [];
    for (var i = 0; i < v.length; i++) { a.push(copy(v[i])); }
    return a;
  }
  var o = {};
  for (var k in v) { o[k] = copy(v[k]); }
  return o;
}
subscribe('f', function (m, keyList) {
  // Fields read by name before anything fills the view: its fast path.
  var byName = [];
  if (keyList !== '') {
    var ks = keyList.substring(1).split('\u0000');
    for (var i = 0; i < ks.length; i++) { byName.push(m[ks[i]]); }
  }
  print(json(byName));
  print(json(m));
  print(typeof m === 'object' && m !== null && !Array.isArray(m) ? keys(m) : '');
  print(json(copy(m)));
});`, host, script.Config{})
	if err == nil {
		err = s.Start()
	}
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		own := append([]byte(nil), data...) // the Raw keeps its buffer
		r, err := msg.ParseRaw(own)
		tree, treeErr := msg.DecodeBinary(data)
		canonical := treeErr == nil
		if canonical {
			again, err := msg.EncodeBinary(tree)
			canonical = err == nil && bytes.Equal(again, data)
		}
		if (err == nil) != canonical {
			t.Fatalf("ParseRaw(%x): %v, but canonical = %v (tree error %v)", data, err, canonical, treeErr)
		}
		if err != nil {
			return
		}

		if got := r.Bytes(); !bytes.Equal(got, data) {
			t.Fatalf("Bytes = %x, want %x", got, data)
		}
		if got, _ := msg.AppendBinary(nil, r); !bytes.Equal(got, data) {
			t.Fatalf("AppendBinary(raw) = %x, want %x", got, data)
		}
		wantJSON, err := msg.AppendJSON(nil, tree)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := msg.AppendJSON(nil, r); !bytes.Equal(got, wantJSON) {
			t.Fatalf("JSON from the bytes %s, from the tree %s", got, wantJSON)
		}
		if !msg.Equal(r, tree) || !msg.Equal(tree, r) {
			t.Fatalf("Raw and tree not Equal: %#v", tree)
		}
		checkPaths(t, r, tree)

		if depth(tree) > 20 {
			return // past what a script may nest
		}
		// The script is told the keys (NUL-separated, after a marker byte)
		// when that list can be split back.
		var ks []string
		byName := []msg.Value{}
		keyList := ""
		if m, ok := tree.(msg.Map); ok {
			for k := range m {
				ks = append(ks, k)
			}
			sort.Strings(ks)
			if len(ks) > 0 && !strings.Contains(strings.Join(ks, ""), "\x00") {
				keyList = "\x01" + strings.Join(ks, "\x00")
				for _, k := range ks {
					byName = append(byName, m[k])
				}
			}
		}
		wantKeys := strings.Join(ks, "\x00")
		wantByName, _ := msg.AppendJSON(nil, byName)
		host.prints, host.err = host.prints[:0], nil
		host.handler(r, keyList)
		if host.err != nil {
			t.Fatalf("script: %v", host.err)
		}
		if len(host.prints) != 4 || host.prints[0] != string(wantByName) || host.prints[1] != string(wantJSON) ||
			host.prints[2] != wantKeys || host.prints[3] != string(wantJSON) {
			t.Fatalf("script read %q, want fields %s, json %s and keys %q", host.prints, wantByName, wantJSON, wantKeys)
		}
	})
}

// checkPaths reads every dotted path through tree's maps from the Raw too,
// and the entries of every map and array in order.
func checkPaths(t *testing.T, r msg.Raw, tree msg.Value) {
	t.Helper()
	root, _ := tree.(msg.Map)
	var walk func(prefix string, node msg.Value, raw msg.Raw)
	walk = func(prefix string, node msg.Value, raw msg.Raw) {
		var gotKeys []string
		var gotVals []msg.Value
		raw.Range(func(k string, v msg.Value) { gotKeys, gotVals = append(gotKeys, k), append(gotVals, v) })
		switch x := node.(type) {
		case []msg.Value:
			if raw.Len() != len(x) || len(gotVals) != len(x) {
				t.Fatalf("%q: %d elements from the bytes, %d in the tree", prefix, len(gotVals), len(x))
			}
			for i, e := range x {
				if !msg.Equal(gotVals[i], e) {
					t.Fatalf("%q[%d]: %#v from the bytes, %#v in the tree", prefix, i, gotVals[i], e)
				}
				if sub, ok := gotVals[i].(msg.Raw); ok {
					walk(prefix+"[]", e, sub)
				}
			}
		case msg.Map:
			keys := make([]string, 0, len(x))
			for k := range x {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if raw.Len() != len(x) || strings.Join(gotKeys, "\x00") != strings.Join(keys, "\x00") {
				t.Fatalf("%q: keys %q from the bytes, %q in the tree", prefix, gotKeys, keys)
			}
			for i, k := range keys {
				if !msg.Equal(gotVals[i], x[k]) {
					t.Fatalf("%q.%q: %#v from the bytes, %#v in the tree", prefix, k, gotVals[i], x[k])
				}
				if fv, ok := raw.Field(k); !ok || !msg.Equal(fv, x[k]) {
					t.Fatalf("Field(%q) = %#v, %v; tree has %#v", k, fv, ok, x[k])
				}
				// A key that sorts just after k is absent unless the tree
				// has it.
				next := k + "\x00"
				if fv, ok := raw.Field(next); ok != hasKey(x, next) || !msg.Equal(fv, x[next]) {
					t.Fatalf("Field(%q) = %#v, %v; tree has %#v", next, fv, ok, x[next])
				}
				path := k
				if prefix != "" {
					path = prefix + "." + k
				}
				if !strings.Contains(k, ".") && !strings.Contains(prefix, "[]") {
					treeV, treeOK := msg.Get(root, path)
					rawV, rawOK := msg.Get(r, path)
					if treeOK != rawOK || !msg.Equal(treeV, rawV) {
						t.Fatalf("Get(%q): %#v, %v from the bytes, %#v, %v from the tree", path, rawV, rawOK, treeV, treeOK)
					}
					n1, ok1 := msg.GetNumber(r, path)
					n2, ok2 := msg.GetNumber(root, path)
					if ok1 != ok2 || n1 != n2 || msg.GetString(r, path) != msg.GetString(root, path) {
						t.Fatalf("GetNumber/GetString(%q) differ", path)
					}
				}
				if sub, ok := gotVals[i].(msg.Raw); ok && !strings.Contains(k, ".") {
					walk(path, x[k], sub)
				}
			}
		}
	}
	walk("", tree, r)
}

func hasKey(m msg.Map, k string) bool {
	_, ok := m[k]
	return ok
}

func depth(v msg.Value) int {
	d := 0
	switch x := v.(type) {
	case []msg.Value:
		for _, e := range x {
			d = max(d, depth(e))
		}
		return d + 1
	case msg.Map:
		for _, e := range x {
			d = max(d, depth(e))
		}
		return d + 1
	}
	return 0
}

// fuzzHost is the script.Host of FuzzRaw: it keeps the handler and what the
// script prints.
type fuzzHost struct {
	handler func(msg.Value, string)
	prints  []string
	err     error
}

func (h *fuzzHost) Publish(string, msg.Value) error { return nil }
func (h *fuzzHost) Subscribe(_ string, _ msg.Map, fn func(msg.Value, string)) (func(), func(), error) {
	h.handler = fn
	return func() {}, func() {}, nil
}
func (h *fuzzHost) Print(_ string, text string)      { h.prints = append(h.prints, text) }
func (h *fuzzHost) Log(string, string, string)       {}
func (h *fuzzHost) Freeze(string, msg.Value) error   { return nil }
func (h *fuzzHost) Thaw(string) (msg.Value, bool)    { return nil, false }
func (h *fuzzHost) SetTimeout(func(), time.Duration) {}
func (h *fuzzHost) ReportError(_ string, err error)  { h.err = err }
