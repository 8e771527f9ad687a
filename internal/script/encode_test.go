package script

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unicode/utf8"

	"pogo/internal/msg"
)

// refToMsg is the tree builder toMsg was before it wrote the encoding
// itself, kept as FuzzToMsg's reference: msg.Encode of the tree it builds is
// the encoding a script value must have, and msg.AppendJSON of the tree its
// JSON. Functions are skipped in objects and null in arrays, undefined is
// null, a view nothing was written to is the message it views, and a value
// nested more than 64 deep does not convert.
func refToMsg(v value, depth int) (msg.Value, error) {
	if depth > 64 {
		return nil, fmt.Errorf("script: value nesting too deep (cycle?)")
	}
	switch x := v.(type) {
	case nil, undefinedType:
		return nil, nil
	case bool, float64, string:
		return x, nil
	case *array:
		if x.clean() {
			return x.src, nil
		}
		out := make([]msg.Value, 0, len(x.elems))
		for _, e := range x.elems {
			switch e.(type) {
			case *function, *builtin:
				out = append(out, nil)
				continue
			}
			m, err := refToMsg(e, depth+1)
			if err != nil {
				return nil, err
			}
			out = append(out, m)
		}
		return out, nil
	case *object:
		if x.clean() {
			return x.src, nil
		}
		out := make(msg.Map, len(x.ents))
		for i := range x.ents {
			e := x.ents[i].val
			switch e.(type) {
			case *function, *builtin:
				continue
			}
			m, err := refToMsg(e, depth+1)
			if err != nil {
				return nil, err
			}
			out[x.ents[i].key] = m
		}
		return out, nil
	case *function, *builtin:
		return nil, fmt.Errorf("script: cannot serialize a function")
	default:
		return nil, fmt.Errorf("script: cannot serialize %T", v)
	}
}

// FuzzToMsg builds a graph of script values from the input — objects past
// linearMax keys with keys deleted and set again, arrays, views of messages
// partly written, the numbers and strings the canonical rules treat
// specially, keys that are invalid UTF-8 or equal once repaired, functions,
// undefined, nesting 62 to 66 deep — and requires that toMsg encode it as
// the reference tree encodes (msg.Encode), and that json() print what
// msg.AppendJSON prints for the tree; both fail exactly when the reference
// does. Run e.g. `go test -fuzz 'FuzzToMsg$' -fuzztime 5m ./internal/script`
// for a real session.
func FuzzToMsg(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		seed := make([]byte, 8+rng.Intn(120))
		rng.Read(seed)
		f.Add(seed)
	}
	for op := byte(0); op < graphOps; op++ {
		f.Add([]byte{op, 20, 7, 3, 9, 1, 5, 12})
	}
	f.Add([]byte{graphDeep, 2, 0})    // 64 deep: converts
	f.Add([]byte{graphDeep, 3, 0})    // 65 deep: does not
	f.Add([]byte{graphDeep, 3, 5, 1}) // 65 deep, a function at the bottom
	f.Fuzz(func(t *testing.T, in []byte) {
		g := &graphGen{b: in}
		checkToMsg(t, g.value(0))
	})
}

// checkToMsg compares toMsg and json() of v with the reference.
func checkToMsg(t *testing.T, v value) {
	t.Helper()
	ref, wantErr := refToMsg(v, 0)
	var want []byte
	if wantErr == nil {
		want, wantErr = msg.EncodeBinary(ref)
	}
	got, err := toMsg(v)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("ToMsg error %v, reference error %v", err, wantErr)
	}
	in := &interp{name: "fuzz"}
	text, jerr := in.jsonString("json", v)
	if (jerr != nil) != (wantErr != nil) {
		t.Fatalf("json() error %v, reference error %v", jerr, wantErr)
	}
	if wantErr != nil {
		return
	}
	switch v.(type) {
	case *object, *array:
		r, ok := got.(msg.Raw)
		if !ok {
			t.Fatalf("ToMsg of %T = %T, want a msg.Raw", v, got)
		}
		if src, clean := cleanView(v); clean && r != src {
			t.Fatal("ToMsg of a clean view is not the message it views")
		}
	}
	if b, _ := msg.EncodeBinary(got); !bytes.Equal(b, want) {
		t.Fatalf("ToMsg encodes to\n%x\nthe reference to\n%x", b, want)
	}
	// The tree's JSON escapes a byte of invalid UTF-8 as \ufffd; the
	// encoding has replaced it already, and its JSON holds U+FFFD itself,
	// its keys in the order of the replaced keys. Where there is none, the
	// two are the same text.
	raw, err := msg.ParseRaw(want)
	if err != nil {
		t.Fatal(err)
	}
	if j, _ := msg.AppendJSON(nil, raw); text != string(j) {
		t.Fatalf("json() = %s\nthe reference's encoding: %s", text, j)
	}
	if validTree(ref) {
		if j, _ := msg.AppendJSON(nil, ref); text != string(j) {
			t.Fatalf("json() = %s\nthe reference: %s", text, j)
		}
	}
}

// validTree reports whether every key and string of a tree is valid UTF-8.
func validTree(v msg.Value) bool {
	switch x := v.(type) {
	case string:
		return utf8.ValidString(x)
	case []msg.Value:
		for _, e := range x {
			if !validTree(e) {
				return false
			}
		}
	case msg.Map:
		for k, e := range x {
			if !utf8.ValidString(k) || !validTree(e) {
				return false
			}
		}
	}
	return true
}

// graphGen builds script values from fuzz input, a byte per decision; an
// exhausted input reads as zeros.
type graphGen struct{ b []byte }

// The kinds of value graphGen.value makes; the first graphLeaves are leaves.
const (
	graphNull byte = iota
	graphUndefined
	graphBool
	graphNumber
	graphString
	graphFunction
	graphObject
	graphArray
	graphView
	graphDeep
	graphOps
	graphLeaves = graphObject
)

var (
	graphNumbers = []float64{
		0, math.Copysign(0, -1), 1, -1, 7, 1023, 1024, 0.5, -2.25, 1.0 / 3,
		1e15, -1e15, 1e15 - 1, -(1e15 - 1), 1e21, 1e-7, 5e-324, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	graphStrings = []string{"", "x", "a\"b\\c\n", "<&>", " ", "é", "\xc3", "\xff\xfe", "\xef\xbf\xbd"}
	// graphKeys holds keys that sort apart only before UTF-8 repair ("\x80"
	// and "é"), that collide after it ("\xc3", "\xc4" and the valid
	// "\xef\xbf\xbd"), and, with k00 to k31, enough for objects past
	// linearMax.
	graphKeys = []string{"", "a", "b", "t", "aps", "é", "\xc3", "\xc4", "\x80", "\xef\xbf\xbd", "\xff"}
	// graphMessages are what views are made of.
	graphMessages = func() []msg.Raw {
		wide := msg.Map{}
		for i := 0; i < 3*linearMax; i++ {
			wide[fmt.Sprintf("k%02d", i)] = float64(i) / 4
		}
		out := make([]msg.Raw, 0, 3)
		for _, m := range []msg.Map{
			{"a": 1.0, "s": "y", "inner": msg.Map{"x": 1.0, "deep": []msg.Value{1.0, msg.Map{"q": 2.0}}}},
			{"list": []msg.Value{msg.Map{"k": "v"}, 2.0, "s"}, "t": 12345.0},
			wide,
		} {
			r, err := msg.Encode(m)
			if err != nil {
				panic(err)
			}
			out = append(out, r)
		}
		return out
	}()
)

func (g *graphGen) next() int {
	if len(g.b) == 0 {
		return 0
	}
	c := g.b[0]
	g.b = g.b[1:]
	return int(c)
}

func (g *graphGen) key() string {
	k := g.next()
	if k%3 == 0 {
		return fmt.Sprintf("k%02d", k/3%32)
	}
	return graphKeys[k%len(graphKeys)]
}

// value makes a value to be nested depth deep: beyond three levels, only
// leaves and deep chains.
func (g *graphGen) value(depth int) value {
	op := byte(g.next()) % graphOps
	if depth > 3 && op != graphDeep {
		op %= graphLeaves
	}
	switch op {
	case graphNull:
		return nil
	case graphUndefined:
		return undefined
	case graphBool:
		return g.next()%2 == 1
	case graphNumber:
		return graphNumbers[g.next()%len(graphNumbers)]
	case graphString:
		return graphStrings[g.next()%len(graphStrings)]
	case graphFunction:
		if g.next()%2 == 1 {
			return &function{}
		}
		return &builtin{name: "b"}
	case graphObject:
		o := newObject()
		for n := g.next() % 24; n > 0; n-- {
			o.set(g.key(), g.value(depth+1))
		}
		for n := g.next() % 4; n > 0; n-- {
			o.delete(g.key())
		}
		if g.next()%2 == 1 {
			k := g.key()
			o.delete(k)
			o.set(k, g.value(depth+1))
		}
		return o
	case graphArray:
		a := newArray()
		for n := g.next() % 6; n > 0; n-- {
			a.setAt(a.len()+g.next()%2, g.value(depth+1)) // a hole now and then
		}
		return a
	case graphView:
		return g.view(depth)
	default: // graphDeep
		// Leaves 62 to 66 levels below the chain's top.
		levels := 62 + g.next()%5
		v := g.value(depth + 4)
		for i := 0; i < levels; i++ {
			if g.next()%2 == 0 {
				o := newObject()
				o.set("d", v)
				v = o
			} else {
				v = newArray(v)
			}
		}
		return v
	}
}

// view returns a view of one of graphMessages, or a node inside one, with
// nothing written, or written at some level.
func (g *graphGen) view(depth int) value {
	o := fromMsg(graphMessages[g.next()%len(graphMessages)]).(*object)
	switch g.next() % 9 {
	case 1: // filled, nothing written
		o.keys()
	case 2: // a clean node inside
		if v, ok := o.lookup("inner"); ok {
			return v
		}
	case 3:
		o.set(g.key(), g.value(depth+1))
	case 4:
		o.delete(g.key())
	case 5: // written two levels down: the rest stays clean
		if v, ok := o.lookup("inner"); ok {
			v.(*object).set("x", g.value(depth+2))
		}
	case 6:
		if v, ok := o.lookup("list"); ok {
			v.(*array).setAt(g.next()%4, g.value(depth+2))
		}
	case 7: // read deep, nothing written
		if v, ok := o.lookup("inner"); ok {
			d, _ := v.(*object).lookup("deep")
			d.(*array).at(1)
		}
	case 8: // written three levels down
		if v, ok := o.lookup("inner"); ok {
			d, _ := v.(*object).lookup("deep")
			d.(*array).at(1).(*object).set("q", g.value(depth+3))
		}
	}
	return o
}

// TestToMsgCases runs checkToMsg on the shapes FuzzToMsg aims at, built by
// hand.
func TestToMsgCases(t *testing.T) {
	nest := func(levels int, leaf value, inArray bool) value {
		v := leaf
		for i := 0; i < levels; i++ {
			if inArray {
				v = newArray(v)
			} else {
				o := newObject()
				o.set("d", v)
				v = o
			}
		}
		return v
	}
	numbers := newObject()
	for i, f := range graphNumbers {
		numbers.set(fmt.Sprintf("n%02d", i), f)
	}
	wide := newObject()
	for i := 0; i < 3*linearMax; i++ {
		wide.set(fmt.Sprintf("k%02d", (i*7)%(3*linearMax)), float64(i))
	}
	wide.delete("k03")
	wide.set("k03", "again")
	invalid := newObject()
	invalid.set("\x80", 1.0)
	invalid.set("é", 2.0)
	invalid.set("s", "\xc3")
	withFunctions := newObject()
	withFunctions.set("f", &function{})
	withFunctions.set("a", newArray(&function{}, &builtin{}, undefined, nil, newObject()))
	withFunctions.set("u", undefined)
	view := fromMsg(graphMessages[0]).(*object)
	inner, _ := view.lookup("inner")
	inner.(*object).set("x", 2.0)
	for name, v := range map[string]value{
		"numbers":           numbers,
		"wide":              wide,
		"invalid UTF-8":     invalid,
		"functions":         withFunctions,
		"partly written":    view,
		"64 deep":           nest(64, 1.0, false),
		"65 deep":           nest(65, 1.0, true),
		"65 deep, function": nest(64, newArray(&function{}), true),
		"top function":      &builtin{},
		"undefined":         undefined,
		"string":            "\xc3",
	} {
		t.Run(name, func(t *testing.T) { checkToMsg(t, v) })
	}
	for _, k := range []string{"\xc4", "\xef\xbf\xbd"} {
		o := newObject()
		o.set("\xc3", 1.0)
		o.set(k, 2.0)
		if _, err := toMsg(o); err == nil || !strings.Contains(err.Error(), "keys equal after UTF-8 repair") {
			t.Errorf("keys %q and %q: ToMsg error %v", "\xc3", k, err)
		}
	}
}

// TestPublishOfObjectThatDoesNotEncodeFails: two keys that become equal once
// their invalid UTF-8 is repaired make an object no message can hold.
// Publishing it fails at the call and is not counted, and json() of it
// fails. The publish used to be counted and then dropped by the broker, and
// json() printed the key twice.
func TestPublishOfObjectThatDoesNotEncodeFails(t *testing.T) {
	const build = `var o = {}; o['é'.slice(0, 1)] = 1; o['Ā'.slice(0, 1)] = 2;`
	for _, call := range []string{`publish('x', o);`, `print(json(o));`, `print(JSON.stringify(o));`} {
		h := newTestHost()
		s, err := New("test.js", build+call, h, Config{})
		if err != nil {
			t.Fatal(err)
		}
		err = s.Start()
		if err == nil || !strings.Contains(err.Error(), "keys equal after UTF-8 repair") {
			t.Errorf("%s: error %v", call, err)
		}
		if st := s.StatsSnapshot(); st.Publishes != 0 || len(h.published) != 0 || len(h.prints) != 0 {
			t.Errorf("%s: %d publishes counted, %d published, printed %q", call, st.Publishes, len(h.published), h.prints)
		}
	}
}

// TestPublishTellsForwardsFromEncodings: a host that takes encodings is
// handed a message the script received as it is, and told so; an object
// the script built or wrote to is encoded for the call. A plain Host gets
// the message as it is too, and a tree for what the script built.
func TestPublishTellsForwardsFromEncodings(t *testing.T) {
	const src = `subscribe('ch', function (m) {
		publish('as-is', m);
		publish('inner', m.inner);
		publish('built', {t: m.a});
		m.inner.x = 2;
		publish('written', m);
		publish('array', [m.a]);
		publish('scalar', m.s);
	});`
	sent := graphMessages[0]
	h, _ := run(t, src)
	h.subs[0].handler(sent, "")
	if len(h.errs) != 0 {
		t.Fatal(h.errs)
	}
	inner, _ := sent.Field("inner")
	want := []struct {
		channel   string
		payload   msg.Value
		forwarded bool
	}{
		{"as-is", sent, true},
		{"inner", inner, true},
		{"built", msg.Map{"t": 1.0}, false},
		{"written", msg.Map{"a": 1.0, "s": "y", "inner": msg.Map{"x": 2.0, "deep": []msg.Value{1.0, msg.Map{"q": 2.0}}}}, false},
		{"array", []msg.Value{1.0}, false},
		{"scalar", "y", false},
	}
	if len(h.published) != len(want) || len(h.forwarded) != len(want)-1 {
		t.Fatalf("published %d, %d encoded", len(h.published), len(h.forwarded))
	}
	for i, w := range want {
		p := h.published[i]
		if p.channel != w.channel || !msg.Equal(p.payload, w.payload) {
			t.Errorf("%s: published %s %v", w.channel, p.channel, p.payload)
		}
		if i < len(h.forwarded) && h.forwarded[i] != w.forwarded {
			t.Errorf("%s: forwarded %v", w.channel, h.forwarded[i])
		}
	}
	if h.published[0].payload != msg.Value(sent) {
		t.Error("the message forwarded is not the one received")
	}

	plain, _ := runPlain(t, src)
	plain.subs[0].handler(sent, "")
	if p := plain.published[0].payload; p != msg.Value(sent) {
		t.Errorf("a plain host was handed %T for a forward", p)
	}
	if p, ok := plain.published[2].payload.(msg.Map); !ok || !msg.Equal(p, want[2].payload) {
		t.Errorf("a plain host was handed %#v for a built object, want a msg.Map", plain.published[2].payload)
	}
}

// TestJSONOfWrittenObjectAllocations pins json() of an 18-key object the
// script built, as scan.js builds one: it is encoded and transcoded in the
// interpreter's buffers, so what it costs is the string and the box that
// makes it a value.
func TestJSONOfWrittenObjectAllocations(t *testing.T) {
	h, s := run(t, `
		var o = {};
		for (var i = 0; i < 18; i++) { o['00:11:22:33:44:' + i] = i / 7; }
		function f() { return json(o); }
		print(f());`)
	fn, _ := s.globals.get("f")
	in := s.in
	if n := testing.AllocsPerRun(100, func() {
		in.begin(1000)
		if _, err := in.invoke(0, fn, undefined, nil); err != nil {
			t.Fatal(err)
		}
	}); n != 2 {
		t.Errorf("json() of an 18-key object: %v allocs, want 2", n)
	}
	if !strings.HasPrefix(h.prints[0], `{"00:11:22:33:44:0":0,"00:11:22:33:44:1":0.14285714285714285,`) {
		t.Errorf("json() = %s", h.prints[0])
	}
}
