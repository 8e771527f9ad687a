package script

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"pogo/internal/alloctest"
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
	o := newObject()
	var want []string
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%02d", (i*7)%n) // not sorted
		o.set(k, float64(i))
		want = append(want, k)
	}
	if got := o.keys(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("keys = %v, want %v", got, want)
	}
	if o.index == nil {
		t.Fatal("no index past linearMax entries")
	}
	o.set(want[3], "again")
	if v, _ := o.lookup(want[3]); v != "again" || o.Len() != n {
		t.Errorf("overwrite: %v, len %d", v, o.Len())
	}
	// Delete then reinsert: the key moves to the end, the rest keep their
	// places, and every position the index holds is still right.
	o.delete(want[2])
	o.set(want[2], "back")
	want = append(append(want[:2:2], want[3:]...), want[2])
	if got := o.keys(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("after delete+reinsert keys = %v, want %v", got, want)
	}
	for i, k := range want {
		if o.find(k) != i {
			t.Errorf("find(%s) = %d, want %d", k, o.find(k), i)
		}
	}
	for _, k := range want {
		o.delete(k)
	}
	if o.Len() != 0 || o.find(want[0]) != -1 {
		t.Errorf("after deleting all: len %d", o.Len())
	}
}

// TestTableMatchesModel runs seeded streams of put, get, remove and re-put
// over 0 to 200 keys against a Go map and a slice of the keys in insertion
// order. Each stream grows the table past linearMax, shrinks it below and
// grows it again, so the index is built, kept, rebuilt on removes and
// doubled; every lookup must agree with the model and the entries, which
// for-in walks, must stay in the model's order.
func TestTableMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nkeys := rng.Intn(201)
		key := func() string { return fmt.Sprintf("key%d", rng.Intn(nkeys+1)) }
		var tb table
		model := map[string]float64{}
		var order []string
		drop := func(k string) {
			delete(model, k)
			order = slices.DeleteFunc(order, func(o string) bool { return o == k })
		}
		up, down := 0, 0 // crossings of linearMax
		for op := 0; op < 3000; op++ {
			// Three phases: mostly puts, mostly removes, mostly puts.
			puts, removes := 6, 1
			if op >= 1000 && op < 2000 {
				puts, removes = 1, 6
			}
			k, v := key(), float64(op)
			before := len(tb.ents)
			switch r := rng.Intn(10); {
			case r < puts:
				if _, ok := model[k]; !ok {
					order = append(order, k)
				}
				model[k] = v
				tb.put(k, v)
			case r < puts+removes:
				if len(order) > 0 && rng.Intn(2) == 0 {
					k = order[rng.Intn(len(order))]
				}
				drop(k)
				tb.remove(k)
			case r < 9:
				got, ok := tb.get(k)
				if want, has := model[k]; ok != has || (ok && got != want) {
					t.Fatalf("seed %d op %d: get(%s) = %v, %v; want %v, %v", seed, op, k, got, ok, want, has)
				}
			default: // set again after a delete: to the end
				drop(k)
				tb.remove(k)
				order = append(order, k)
				model[k] = v
				tb.put(k, v)
			}
			switch after := len(tb.ents); {
			case before <= linearMax && after > linearMax:
				up++
			case before > linearMax && after <= linearMax:
				down++
			}
			if len(tb.ents) != len(order) {
				t.Fatalf("seed %d op %d: %d entries, model %d", seed, op, len(tb.ents), len(order))
			}
			if op%97 == 0 || op == 2999 {
				for i, k := range order {
					if tb.ents[i].key != k || tb.ents[i].val != model[k] || tb.find(k) != i {
						t.Fatalf("seed %d op %d: entry %d is %s=%v (find %d), model %s=%v",
							seed, op, i, tb.ents[i].key, tb.ents[i].val, tb.find(k), k, model[k])
					}
				}
				if tb.find("absent") != -1 {
					t.Fatalf("seed %d op %d: found a key never put", seed, op)
				}
			}
		}
		if nkeys > 4*linearMax && (up < 2 || down < 1) {
			t.Errorf("seed %d: %d keys crossed linearMax %d times up and %d down", seed, nkeys, up, down)
		}
	}
}

// TestBuildObjectAllocations pins building an object of 18 keys, as scan.js
// builds one per scan: the object, its entries grown from 4 to 8, 16 and 32,
// and the index, made once past linearMax with room for 18. An object, which
// every delivered message's view is, stays within the 48-byte size class.
func TestBuildObjectAllocations(t *testing.T) {
	if n := unsafe.Sizeof(object{}); n > 48 {
		t.Errorf("an Object is %d bytes", n)
	}
	keys := make([]string, 18)
	for i := range keys {
		keys[i] = fmt.Sprintf("00:11:22:33:44:%02x", i)
	}
	var o *object
	if n := testing.AllocsPerRun(100, func() {
		o = newObject()
		for i, k := range keys {
			o.set(k, smallNum[i])
		}
	}); n != 6 {
		t.Errorf("an 18-key object: %v allocs, want 6", n)
	}
	for i, k := range keys {
		if v, _ := o.lookup(k); v != smallNum[i] {
			t.Errorf("%s = %v", k, v)
		}
	}
}

// TestLiteralSiteSizesItsObjects pins the same object built by a script: an
// object literal filled key by key makes its entries once from the second
// call on, sized from the entries its site's previous object reached, so an
// 18-key object costs its entries and its index over what an empty one
// costs, where growing from 4 entries made them four times. A site whose
// last object passed literalSizeMax makes room for literalSizeMax entries.
func TestLiteralSiteSizesItsObjects(t *testing.T) {
	h, s := run(t, `
		var keys = [];
		for (var i = 0; i < 300; i++) { keys.push('00:11:22:33:44:' + i); }
		var last;
		function build(n) {
			var o = {};
			for (var i = 0; i < n; i++) { o[keys[i]] = i; }
			last = o;
		}
		subscribe('full', function () { build(18); });
		subscribe('empty', function () { build(0); });
		subscribe('huge', function () { build(300); });
		subscribe('one', function () { build(1); });
	`)
	full, empty, huge, one := h.subs[0].handler, h.subs[1].handler, h.subs[2].handler, h.subs[3].handler
	capOfLast := func() int {
		v, _ := s.globals.get("last")
		return cap(v.(*object).ents)
	}
	full(nil, "")
	perCall := func(handler func(msg.Value, string)) float64 {
		return testing.AllocsPerRun(100, func() { handler(nil, "") })
	}
	if n := perCall(full) - perCall(empty); n != 2 {
		t.Errorf("an 18-key object from a literal: %v allocs more than an empty one, want 2 (its entries and its index)", n)
	}
	full(nil, "") // after the empty one: grown from 4 entries
	full(nil, "")
	if c := capOfLast(); c != 18+18/4 {
		t.Errorf("after an 18-key object the site made room for %d entries, want %d", c, 18+18/4)
	}
	huge(nil, "")
	one(nil, "")
	if c := capOfLast(); c != literalSizeMax {
		t.Errorf("after a 300-key object the site made room for %d entries, want %d", c, literalSizeMax)
	}
	one(nil, "")
	if c := capOfLast(); c != 1 {
		t.Errorf("after a 1-key object the site made room for %d entries, want 1", c)
	}
	if len(h.errs) != 0 {
		t.Fatal(h.errs)
	}
}

// A script's entries run one at a time under its lock, so the object a
// literal site keeps is read and replaced by one entry at a time, however
// many goroutines deliver at once (run under -race).
func TestLiteralSiteUnderConcurrentDeliveries(t *testing.T) {
	_, s := run(t, `
		var built = 0, wrong = 0;
		subscribe('ch', function (m) {
			var o = {};
			for (var i = 0; i < m.k; i++) { o['k' + i] = i; }
			if (Object.keys(o).length !== m.k) { wrong++; }
			built++;
		});
	`)
	handler := s.host.(*testHost).subs[0].handler
	const goroutines, each = 4, 200
	sizes := make([]msg.Raw, 40)
	for k := range sizes {
		sizes[k] = mustRaw(t, msg.Map{"k": float64(k)})
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				handler(sizes[(g*7+i)%len(sizes)], "")
			}
		}()
	}
	wg.Wait()
	built, _ := s.globals.get("built")
	wrong, _ := s.globals.get("wrong")
	if built != float64(goroutines*each) || wrong != 0.0 {
		t.Errorf("built %v objects, %v of the wrong size; want %d and 0", built, wrong, goroutines*each)
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
		v, ok := s.globals.get(name)
		if !ok {
			t.Fatalf("no %s", name)
		}
		return v.(*function).code.lit
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
	plain, _ := s.globals.get("plain")
	args := []value{1.0, 2.0}
	if n := testing.AllocsPerRun(100, func() {
		in.begin(1000)
		if _, err := in.invoke(0, plain, undefined, args); err != nil {
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
	view, _ := fromMsg(mustRaw(t, msg.Map{"a": 0.0, "inner": inner, "z": true})).(*object).lookup("inner")
	out, err := toMsg(view)
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

// The two handlers of bench/'s scan_pipeline are measured through the ops
// their benchmarks time, on a host that takes the published object encoded
// as the core does and drops log lines. The scan ceiling is its measured
// count: the view of the scan and the entries it
// fills to reach aps, the array's view, elements and one block of element
// views, the object the handler builds with its entries made once, sized
// from the last object its literal made, and its index made once, the
// published literal and its entries, and the one buffer the object is
// encoded into. It was 14 while the handler's object grew its entries four
// times, and 38 while publish built a msg.Map tree for the broker to encode,
// a table past linearMax had a Go map for its index and every non-integer
// result was boxed on its own. The sink's is its measured count, fed an
// encoded message as production feeds it: the view of the message, the one
// string the fused chain makes — json() writes its text straight into it —
// and its box. It was 4 while it was measured on a host that built a log
// line of its own, 6 while json() made a
// string and boxed it, 16 while each + made (and boxed) its own string,
// numbers were formatted on their own, the origin was boxed per call and
// logTo built an argument slice. With map-backed objects and frames, boxed
// numbers and messages copied in and out, the same handlers cost 460 and 77.
// Their bytes ceilings are 15 % over the 3 165 B and 744 B they measured
// with 64 scans (3 152 B and 704 B on this test's one).
//
// The clustering ceiling is its measured count per sample, 159.3, rounded
// up: the key slice of each for-in walk and the numbers msg's cache of boxed
// numbers misses, most of them cosine distances. It was 509 while for-in
// boxed every key on its own.
//
// boxCollisionCeiling is what two pairs of the scan's BSSIDs sharing slots of
// msg's string box cache cost, a copy and a box per read of each: one pair
// comes in about one process in twenty-five, two in one in 1 500, three in
// one in 100 000. A cache that kept nothing would cost 36.
const (
	scanHandlerAllocCeiling       = 11
	scanHandlerBytesCeiling       = 3165 * 115 / 100
	sinkHandlerAllocCeiling       = 3
	sinkHandlerBytesCeiling       = 744 * 115 / 100
	clusteringHandlerAllocCeiling = 160
	boxCollisionCeiling           = 8
)

func TestHandlerAllocationCeilings(t *testing.T) {
	h, _ := run(t, scripts.MustSource("scan.js"))
	scan := benchScan(t)
	h.subs[0].handler(scan, "")
	if len(h.published) != 1 {
		t.Fatalf("scan.js published %d messages", len(h.published))
	}
	wire := h.published[0].payload.(msg.Raw)
	if aps, _ := wire.Field("aps"); aps.(msg.Raw).Len() != 18 {
		n := aps.(msg.Raw).Len()
		t.Fatalf("scan.js kept %d access points, want 18", n)
	}
	// msg's cache of short strings read from encodings is seeded per
	// process: in about one process in twenty-five, two of the scan's BSSIDs
	// share a slot, and every read of either boxes it again. That cost is
	// the cache's, so it is measured on its own, by reading the BSSIDs the
	// handler reads, and taken off — up to boxCollisionCeiling, so that a
	// cache that stopped keeping what it boxed still fails here.
	apsRaw, _ := scan.Field("aps")
	readBSSIDs := func() {
		apsRaw.(msg.Raw).Range(func(_ string, ap msg.Value) {
			if local, _ := ap.(msg.Raw).Field("local"); local != true {
				ap.(msg.Raw).Field("bssid")
			}
		})
	}
	boxes, boxBytes := testing.AllocsPerRun(200, readBSSIDs), alloctest.BytesPerRun(200, readBSSIDs)
	if boxes > boxCollisionCeiling {
		t.Errorf("reading the scan's BSSIDs: %v allocs, ceiling %d", boxes, boxCollisionCeiling)
	}
	scanOp, _ := scanHandler(t, []msg.Raw{scan})
	if n := testing.AllocsPerRun(200, scanOp) - boxes; n > scanHandlerAllocCeiling {
		t.Errorf("scan.js handler: %v allocs per 20-AP scan, ceiling %d", n, scanHandlerAllocCeiling)
	} else {
		t.Logf("scan.js handler: %v allocs per 20-AP scan (and %v by the string box cache)", n, boxes)
	}
	if b := alloctest.BytesPerRun(200, scanOp) - boxBytes; b > scanHandlerBytesCeiling {
		t.Errorf("scan.js handler: %v B per 20-AP scan, ceiling %d", b, scanHandlerBytesCeiling)
	} else {
		t.Logf("scan.js handler: %v B per 20-AP scan", b)
	}

	hs, _ := run(t, benchSinkJS)
	hs.subs[0].handler(wire, "phone-0")
	want, _ := msg.EncodeJSON(wire)
	if len(hs.logs) != 1 || hs.logs[0] != "sink|phone-0 12345 "+string(want) {
		t.Fatalf("sink logged %q", hs.logs)
	}
	sinkOp, _ := sinkHandler(t, []msg.Raw{wire})
	if n := testing.AllocsPerRun(200, sinkOp); n > sinkHandlerAllocCeiling {
		t.Errorf("json() sink handler: %v allocs per message, ceiling %d", n, sinkHandlerAllocCeiling)
	} else {
		t.Logf("json() sink handler: %v allocs per message", n)
	}
	if b := alloctest.BytesPerRun(200, sinkOp); b > sinkHandlerBytesCeiling {
		t.Errorf("json() sink handler: %v B per message, ceiling %d", b, sinkHandlerBytesCeiling)
	} else {
		t.Logf("json() sink handler: %v B per message", b)
	}

	// clustering.js walks the keys of its samples with for-in, measuring each
	// new sample against its window. The walk is run over three namings of
	// the same access points, each on a fresh script, and the least count
	// is the handler's: two of a naming's 20 BSSIDs share a slot of msg's
	// string box cache in about one process in twenty, all three namings in
	// about one in 10 000.
	var counts []float64
	for naming := 0; naming < 3; naming++ {
		hc, _ := run(t, scripts.MustSource("clustering.js"))
		handler := hc.subs[0].handler
		samples := clusteringSamples(t, naming)
		cycle := func() {
			for _, m := range samples {
				handler(m, "")
			}
		}
		cycle()
		if len(hc.errs) != 0 || len(hc.published) == 0 {
			t.Fatalf("clustering.js: errors %v, %d clusters published", hc.errs, len(hc.published))
		}
		counts = append(counts, testing.AllocsPerRun(4, cycle)/float64(len(samples)))
	}
	if n := slices.Min(counts); n > clusteringHandlerAllocCeiling {
		t.Errorf("clustering.js handler: %v allocs per sample (namings: %v), ceiling %d", n, counts, clusteringHandlerAllocCeiling)
	} else {
		t.Logf("clustering.js handler: %v allocs per sample (namings: %v)", n, counts)
	}
}

// clusteringSamples returns one cycle of what scan.js publishes for
// clustering.js: a walk past four places, 15 samples at each — a cycle as
// long as the script's window — every place seeing 12 of 20 access points
// at RSSIs that drift from sample to sample. naming names the access points:
// every naming is the same walk.
func clusteringSamples(t *testing.T, naming int) []msg.Raw {
	rng := rand.New(rand.NewSource(1))
	out := make([]msg.Raw, 60)
	for i := range out {
		place := i / 15
		aps := msg.Map{}
		for j := 0; j < 12; j++ {
			ap := (5*place + j) % 20
			rssi := -95 + (7*ap+11*place)%40 + rng.Intn(5)
			aps[fmt.Sprintf("%02x:11:22:33:44:%02x", naming, ap)] = float64(rssi+100) / 45
		}
		out[i] = mustRaw(t, msg.Map{"t": float64(i), "aps": aps})
	}
	return out
}
