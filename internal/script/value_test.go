package script

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"pogo/internal/msg"
	"pogo/internal/script/scripts"
)

// Tests of the value representation: entry-slice objects and frames, shared
// small numbers, copy-on-write views of messages, and the allocation ceilings
// that keep them lean.

func TestNestedFunctionDeclarationStaysLocal(t *testing.T) {
	h, _ := run(t, `
		function helper() { return 'global'; }
		function outer() {
			function helper() { return 'inner'; }
			function leaked() { return 1; }
			return helper();
		}
		print(outer(), helper(), typeof leaked);
	`)
	if h.prints[0] != "inner global undefined" {
		t.Errorf("nested declarations: %q, want %q", h.prints[0], "inner global undefined")
	}
}

func TestObjectOrderAcrossIndexThreshold(t *testing.T) {
	// Twice linearMax keys: the index is built part way through, and order,
	// lookup, overwrite and delete must not notice.
	n := 2 * linearMax
	o := NewObject()
	var want []string
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%02d", (i*7)%n) // not sorted
		o.Set(k, float64(i))
		want = append(want, k)
	}
	if got := o.Keys(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("keys = %v, want %v", got, want)
	}
	if o.index == nil {
		t.Fatal("no index past linearMax entries")
	}
	o.Set(want[3], "again")
	if v, _ := o.Get(want[3]); v != "again" || o.Len() != n {
		t.Errorf("overwrite: %v, len %d", v, o.Len())
	}
	// Delete then reinsert: the key moves to the end, the rest keep their
	// places, and every position the index holds is still right.
	o.Delete(want[2])
	o.Set(want[2], "back")
	want = append(append(want[:2:2], want[3:]...), want[2])
	if got := o.Keys(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("after delete+reinsert keys = %v, want %v", got, want)
	}
	for i, k := range want {
		if o.find(k) != i {
			t.Errorf("find(%s) = %d, want %d", k, o.find(k), i)
		}
	}
	for _, k := range want {
		o.Delete(k)
	}
	if o.Len() != 0 || o.find(want[0]) != -1 {
		t.Errorf("after deleting all: len %d", o.Len())
	}
}

func TestForInOrderViewAndMaterialised(t *testing.T) {
	h, _ := run(t, `
		function keys(m) { var out = []; for (var k in m) { out.push(k); } return out.join(','); }
		subscribe('ch', function (m) {
			print(keys(m));        // a view: sorted
			m.aa = 1; delete m.b; m.b = 2;
			print(keys(m));        // materialised: sorted, then insertion order
		});
	`)
	h.subs[0].handler(msg.Freeze(msg.Map{"c": 1.0, "a": 2.0, "b": 3.0}), "")
	if len(h.errs) != 0 {
		t.Fatal(h.errs)
	}
	if h.prints[0] != "a,b,c" || h.prints[1] != "a,c,aa,b" {
		t.Errorf("for-in order: %q", h.prints)
	}
}

func TestArgumentsOnlyWhereNamed(t *testing.T) {
	h, s := run(t, `
		function named(a) { return arguments.length + ':' + arguments[1]; }
		function plain(a, b) { return a + b; }
		function outer(a) {
			var inner = function () { return arguments.length; };
			return inner(1, 2, 3);
		}
		print(named(1, 'x', 3), plain(1, 2), outer(1));
	`)
	if h.prints[0] != "3:x 3 3" {
		t.Errorf("arguments: %q", h.prints[0])
	}
	lit := func(name string) *funcLit {
		v, ok := s.globals.lookup(name)
		if !ok {
			t.Fatalf("no %s", name)
		}
		return v.(*Function).lit
	}
	if !lit("named").usesArgs {
		t.Error("named: arguments not switched on")
	}
	if lit("plain").usesArgs {
		t.Error("plain: arguments switched on")
	}
	if lit("outer").usesArgs {
		t.Error("outer: a nested function naming arguments switched it on")
	}
	if got := lit("plain").nlocals; got != 2 {
		t.Errorf("plain: nlocals = %d, want 2", got)
	}
	if got := lit("outer").nlocals; got != 2 {
		t.Errorf("outer: nlocals = %d, want 2 (a, inner)", got)
	}
	// A call that does not name arguments costs nothing per call once its
	// frame has been through the interpreter's free list.
	if _, err := s.Call("plain", 1.0, 2.0); err != nil {
		t.Fatal(err)
	}
	in := s.in
	plain, _ := s.globals.lookup("plain")
	args := []Value{1.0, 2.0}
	if n := testing.AllocsPerRun(100, func() {
		in.begin(1000)
		if _, err := in.invoke(nil, plain, Undefined, args); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("plain(1, 2): %v allocs per call, want 0", n)
	}
}

func TestReturnThroughFinally(t *testing.T) {
	if got := evalExpr(t, `(function () { try { return 1; } finally { (function () { return 2; })(); } })()`); got != "1" {
		t.Errorf("return interrupted by finally = %s, want 1", got)
	}
	if got := evalExpr(t, `(function () { try { return 1; } finally { return 3; } })()`); got != "3" {
		t.Errorf("return overridden by finally = %s, want 3", got)
	}
}

func TestBoxNum(t *testing.T) {
	for _, f := range []float64{0, 1, 1023, 1024, -1, 0.5, 1e300, math.Inf(1), math.Inf(-1)} {
		if got := boxNum(f).(float64); got != f {
			t.Errorf("boxNum(%v) = %v", f, got)
		}
	}
	if got := boxNum(math.NaN()).(float64); !math.IsNaN(got) {
		t.Errorf("boxNum(NaN) = %v", got)
	}
	if got := boxNum(math.Copysign(0, -1)).(float64); !math.Signbit(got) {
		t.Error("boxNum(-0) lost its sign")
	}
	for expr, want := range map[string]string{
		"1 / -0 === -Infinity":                                  "true",
		"1 / (0 * -1) === -Infinity":                            "true",
		"1 / (-0 + 0) === Infinity":                             "true",
		"1 / (5 % -5) === Infinity":                             "true", // Go's Mod keeps the dividend's sign
		"1 / (-5 % 5) === -Infinity":                            "true",
		"(function () { var i = 1022; i++; ++i; return i; })()": "1024",
		"[1, 2, 3].indexOf(3) + 1":                              "3",
		"'abc'.length * 'ab'.length":                            "6",
	} {
		if got := evalExpr(t, expr); got != want {
			t.Errorf("%s = %s, want %s", expr, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { boxNum(17) }); n != 0 {
		t.Errorf("boxNum(17) allocates %v", n)
	}
}

func TestViewCopyOnWrite(t *testing.T) {
	// Two subscribers get the same message, as from the broker. The first
	// writes to it at every level; the second must see what was sent.
	sent := mustRaw(t, msg.Map{
		"t":   7.0,
		"aps": []msg.Value{msg.Map{"bssid": "aa", "rssi": -60.0}, msg.Map{"bssid": "bb", "rssi": -70.0}},
	})
	before, _ := msg.EncodeJSON(sent)
	h, _ := run(t, `
		subscribe('ch', function (m) {
			print(m.aps === m.aps, m.aps[0] === m.aps[0]);
			m.t = 8; m.extra = true; delete m.nothing;
			m.aps[0].rssi = 0; m.aps[0].more = 'x';
			m.aps.push('tail'); m.aps[1] = null;
			publish('out', m);
		});
		subscribe('ch', function (m) { print(json(m)); publish('out', m); });
	`)
	for _, sub := range h.subs {
		sub.handler(sent, "")
	}
	if len(h.errs) != 0 {
		t.Fatal(h.errs)
	}
	if h.prints[0] != "true true" {
		t.Errorf("identity of nested views: %q", h.prints[0])
	}
	if after, _ := msg.EncodeJSON(sent); string(after) != string(before) {
		t.Errorf("the sent message changed:\n was %s\n now %s", before, after)
	}
	if h.prints[1] != string(before) {
		t.Errorf("second subscriber saw %s, want %s", h.prints[1], before)
	}
	wrote, _ := msg.EncodeJSON(h.published[0].payload)
	if want := `{"aps":[{"bssid":"aa","more":"x","rssi":0},null,"tail"],"extra":true,"t":8}`; string(wrote) != want {
		t.Errorf("first subscriber published %s, want %s", wrote, want)
	}
	// An untouched view converts to the message itself: forwarding builds
	// and encodes nothing.
	if fwd, ok := h.published[1].payload.(msg.Raw); !ok || fwd != sent {
		t.Errorf("forwarded message is not the one received: %#v", h.published[1].payload)
	}
}

func TestToMsgOfInnerViewIsOwnRoot(t *testing.T) {
	// publish(ch, m.inner) hands the host the inner node's own bytes: a
	// message in its own right, Equal to the node, encoding to what the node
	// alone encodes to.
	inner := msg.Map{"x": 1.0, "s": "y"}
	view, _ := FromMsg(mustRaw(t, msg.Map{"a": 0.0, "inner": inner, "z": true})).(*Object).Get("inner")
	out, err := ToMsg(view)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := out.(msg.Raw)
	if !ok || !r.IsMap() || !msg.Equal(r, inner) {
		t.Fatalf("ToMsg(inner view) = %#v", out)
	}
	if want, _ := msg.EncodeBinary(inner); string(r.Bytes()) != string(want) {
		t.Errorf("inner view encodes to %x, want %x", r.Bytes(), want)
	}
}

// TestViewReadsWideMessages: a map past linearMax entries is read through
// the table's index, nested arrays of maps through one block of views, and
// JSON of an untouched view is the message's own.
func TestViewReadsWideMessages(t *testing.T) {
	wide := msg.Map{}
	for i := 0; i < 3*linearMax; i++ {
		wide[fmt.Sprintf("k%02d", i)] = float64(i)
	}
	wide["list"] = []msg.Value{msg.Map{"a": 1.0}, "s", msg.Map{"a": 2.0}}
	h, _ := run(t, `
		subscribe('ch', function (m) {
			print(m.k00, m.k17, m.k23, m.nope, m.list.length, m.list[2].a, m.list[1]);
			var n = 0; for (var k in m) { n++; }
			print(n, json(m) === json(JSON.parse(json(m))));
		});
	`)
	h.subs[0].handler(mustRaw(t, wide), "")
	if len(h.errs) != 0 {
		t.Fatal(h.errs)
	}
	if got := strings.Join(h.prints, "|"); got != "0 17 23 undefined 3 2 s|25 true" {
		t.Errorf("wide view read %q", got)
	}
}

func mustRaw(t *testing.T, v msg.Value) msg.Raw {
	t.Helper()
	r, err := msg.Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// benchScan is a 20-AP wifi-scan message in the shape bench/ generates: a
// tenth of the access points locally administered, integer RSSI.
func benchScan(t *testing.T) msg.Raw {
	aps := make([]msg.Value, 20)
	for j := range aps {
		aps[j] = msg.Map{
			"bssid": fmt.Sprintf("00:11:22:33:44:%02x", j),
			"ssid":  fmt.Sprintf("net-%d", j),
			"rssi":  float64(-100 + (j*7)%60),
			"local": j%10 == 9,
		}
	}
	return mustRaw(t, msg.Map{"timestamp": 12345.0, "aps": aps})
}

const benchSinkJS = `subscribe('scans', function (m, origin) {
  logTo('sink', origin + ' ' + m.t + ' ' + json(m));
});`

// The scan ceiling is the measured count (38) plus a little room for a Go
// release that counts differently. The sink's is its measured count, fed an
// encoded message as production feeds it: the view of the message, the one
// string the fused chain makes — json() writes its text straight into it —
// and its box, and the test host's log line. It was 6 while json() made a
// string and boxed it, 16 while each + made (and boxed) its own string,
// numbers were formatted on their own, the origin was boxed per call and
// logTo built an argument slice. With map-backed objects and frames, boxed
// numbers and messages copied in and out, the same handlers cost 460 and 77.
const (
	scanHandlerAllocCeiling = 45
	sinkHandlerAllocCeiling = 4
)

func TestHandlerAllocationCeilings(t *testing.T) {
	h, _ := run(t, scripts.MustSource("scan.js"))
	scan := benchScan(t)
	scanHandler := h.subs[0].handler
	scanHandler(scan, "")
	if len(h.published) != 1 {
		t.Fatalf("scan.js published %d messages", len(h.published))
	}
	wire := mustRaw(t, h.published[0].payload)
	if aps, _ := wire.Field("aps"); aps.(msg.Raw).Len() != 18 {
		n := aps.(msg.Raw).Len()
		t.Fatalf("scan.js kept %d access points, want 18", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		h.published = h.published[:0]
		scanHandler(scan, "")
	}); n > scanHandlerAllocCeiling {
		t.Errorf("scan.js handler: %v allocs per 20-AP scan, ceiling %d", n, scanHandlerAllocCeiling)
	} else {
		t.Logf("scan.js handler: %v allocs per 20-AP scan", n)
	}

	hs, _ := run(t, benchSinkJS)
	sinkHandler := hs.subs[0].handler
	sinkHandler(wire, "phone-0")
	want, _ := msg.EncodeJSON(wire)
	if len(hs.logs) != 1 || hs.logs[0] != "sink|phone-0 12345 "+string(want) {
		t.Fatalf("sink logged %q", hs.logs)
	}
	if n := testing.AllocsPerRun(200, func() {
		hs.logs = hs.logs[:0]
		sinkHandler(wire, "phone-0")
	}); n > sinkHandlerAllocCeiling {
		t.Errorf("json() sink handler: %v allocs per message, ceiling %d", n, sinkHandlerAllocCeiling)
	} else {
		t.Logf("json() sink handler: %v allocs per message", n)
	}
}
