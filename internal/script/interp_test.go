package script

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"pogo/internal/msg"
)

// testHost is a Host that records everything. It is a RawPublisher, as the
// core is: what a script builds reaches it encoded, and forwarded holds the
// flag of each encoding published.
type testHost struct {
	prints    []string
	logs      []string
	published []struct {
		channel string
		payload msg.Value
	}
	forwarded []bool
	subs      []*testSub
	// frozen per script name
	frozen map[string]msg.Value
	timers []struct {
		fn    func()
		delay time.Duration
	}
	errs []error
}

type testSub struct {
	channel  string
	params   msg.Map
	handler  func(msg.Value, string)
	active   bool
	releases int
	renews   int
}

func newTestHost() *testHost {
	return &testHost{frozen: make(map[string]msg.Value)}
}

func (h *testHost) Publish(channel string, m msg.Value) error {
	h.published = append(h.published, struct {
		channel string
		payload msg.Value
	}{channel, m})
	return nil
}

func (h *testHost) PublishRaw(channel string, r msg.Raw, forwarded bool) error {
	h.forwarded = append(h.forwarded, forwarded)
	return h.Publish(channel, r)
}

func (h *testHost) Subscribe(channel string, params msg.Map, handler func(msg.Value, string)) (func(), func(), error) {
	sub := &testSub{channel: channel, params: params, handler: handler, active: true}
	h.subs = append(h.subs, sub)
	return func() { sub.active = false; sub.releases++ },
		func() { sub.active = true; sub.renews++ }, nil
}

func (h *testHost) Print(script, text string) { h.prints = append(h.prints, text) }
func (h *testHost) Log(script, logName, text string) {
	h.logs = append(h.logs, logName+"|"+text)
}
func (h *testHost) Freeze(script string, v msg.Value) error {
	h.frozen[script] = v
	return nil
}
func (h *testHost) Thaw(script string) (msg.Value, bool) {
	v, ok := h.frozen[script]
	return v, ok
}
func (h *testHost) SetTimeout(fn func(), delay time.Duration) {
	h.timers = append(h.timers, struct {
		fn    func()
		delay time.Duration
	}{fn, delay})
}
func (h *testHost) ReportError(script string, err error) { h.errs = append(h.errs, err) }

// plainHost hides testHost's PublishRaw: a Host that is not a
// RawPublisher, handed a tree for what a script builds.
type plainHost struct{ Host }

// run compiles and starts a script, returning the host.
func run(t *testing.T, source string) (*testHost, *Script) {
	t.Helper()
	h := newTestHost()
	return h, startOn(t, h, source)
}

// runPlain is run on a host that is not a RawPublisher.
func runPlain(t *testing.T, source string) (*testHost, *Script) {
	t.Helper()
	h := newTestHost()
	return h, startOn(t, plainHost{h}, source)
}

func startOn(t *testing.T, h Host, source string) *Script {
	t.Helper()
	s, err := New("test.js", source, h, Config{})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	return s
}

// evalExpr evaluates one expression via print().
func evalExpr(t *testing.T, expr string) string {
	t.Helper()
	h, _ := run(t, "print("+expr+");")
	if len(h.prints) != 1 {
		t.Fatalf("prints = %v", h.prints)
	}
	return h.prints[0]
}

func TestArithmetic(t *testing.T) {
	tests := []struct{ expr, want string }{
		{"1 + 2", "3"},
		{"10 - 4 * 2", "2"},
		{"(10 - 4) * 2", "12"},
		{"7 / 2", "3.5"},
		{"7 % 3", "1"},
		{"-5 + 3", "-2"},
		{"2 * 3 + 4 * 5", "26"},
		{"1e3 + 1", "1001"},
		{"0x10", "16"},
		{"0.1 + 0.2 > 0.3 - 0.001", "true"},
		{"1 / 0", "Infinity"},
		{"-1 / 0", "-Infinity"},
		{"0 / 0", "NaN"},
	}
	for _, tt := range tests {
		if got := evalExpr(t, tt.expr); got != tt.want {
			t.Errorf("%s = %q, want %q", tt.expr, got, tt.want)
		}
	}
}

func TestStringsAndConcat(t *testing.T) {
	tests := []struct{ expr, want string }{
		{"'a' + 'b'", "ab"},
		{"'n=' + 5", "n=5"},
		{"5 + '5'", "55"},
		{"'hello'.length", "5"},
		{"'hello'.toUpperCase()", "HELLO"},
		{"'Hello World'.indexOf('World')", "6"},
		{"'a,b,c'.split(',').length", "3"},
		{"'  x  '.trim()", "x"},
		{"'abcdef'.slice(1, 3)", "bc"},
		{"'abcdef'.substring(2)", "cdef"},
		{"'abc'.charAt(1)", "b"},
		{"'abc'.charCodeAt(0)", "97"},
		{"'a-b-c'.replace('-', '+')", "a+b-c"},
		{"'tether'.startsWith('tet')", "true"},
		{"'file.js'.endsWith('.js')", "true"},
		{"'abc'[1]", "b"},
		{"'\\u0041\\n\\t\\''", "A\n\t'"},
	}
	for _, tt := range tests {
		if got := evalExpr(t, tt.expr); got != tt.want {
			t.Errorf("%s = %q, want %q", tt.expr, got, tt.want)
		}
	}
}

func TestComparisonsAndLogic(t *testing.T) {
	tests := []struct{ expr, want string }{
		{"1 < 2", "true"},
		{"2 <= 2", "true"},
		{"3 > 4", "false"},
		{"'a' < 'b'", "true"},
		{"1 == 1", "true"},
		{"1 == '1'", "true"},
		{"1 === '1'", "false"},
		{"null == undefined", "true"},
		{"null === undefined", "false"},
		{"1 != 2", "true"},
		{"1 !== 1", "false"},
		{"true && false", "false"},
		{"true || false", "true"},
		{"!0", "true"},
		{"!!'x'", "true"},
		{"null || 'fallback'", "fallback"},
		{"0 && explode()", "0"}, // short circuit: explode never called
		{"1 ? 'y' : 'n'", "y"},
		{"typeof 1", "number"},
		{"typeof 'x'", "string"},
		{"typeof {}", "object"},
		{"typeof []", "object"},
		{"typeof undefined", "undefined"},
		{"typeof notDeclared", "undefined"},
		{"typeof null", "object"},
		{"typeof print", "function"},
	}
	for _, tt := range tests {
		if got := evalExpr(t, tt.expr); got != tt.want {
			t.Errorf("%s = %q, want %q", tt.expr, got, tt.want)
		}
	}
}

func TestVariablesAndScope(t *testing.T) {
	h, _ := run(t, `
		var x = 1, y;
		x = x + 1;
		x += 3;
		x *= 2;
		print(x, y);
		var z = 10;
		function f() { var z = 20; return z; }
		print(f(), z);
	`)
	if h.prints[0] != "10 undefined" {
		t.Errorf("prints[0] = %q", h.prints[0])
	}
	if h.prints[1] != "20 10" {
		t.Errorf("prints[1] = %q", h.prints[1])
	}
}

func TestClosures(t *testing.T) {
	h, _ := run(t, `
		function counter() {
			var n = 0;
			return function() { n++; return n; };
		}
		var c1 = counter();
		var c2 = counter();
		c1(); c1();
		print(c1(), c2());
	`)
	if h.prints[0] != "3 1" {
		t.Errorf("closures: %q", h.prints[0])
	}
}

func TestLoops(t *testing.T) {
	h, _ := run(t, `
		var sum = 0;
		for (var i = 0; i < 5; i++) sum += i;
		print(sum);
		var n = 0;
		while (n < 10) { n += 3; }
		print(n);
		var m = 0;
		do { m++; } while (m < 0);
		print(m);
		var brk = 0;
		for (var j = 0; j < 100; j++) { if (j === 5) break; brk = j; }
		print(brk);
		var odd = 0;
		for (var k = 0; k < 10; k++) { if (k % 2 === 0) continue; odd += k; }
		print(odd);
	`)
	want := []string{"10", "12", "1", "4", "25"}
	for i, w := range want {
		if h.prints[i] != w {
			t.Errorf("prints[%d] = %q, want %q", i, h.prints[i], w)
		}
	}
}

func TestObjectsAndArrays(t *testing.T) {
	h, _ := run(t, `
		var o = { a: 1, 'b c': 2, nested: { x: [1, 2, 3] } };
		print(o.a, o['b c'], o.nested.x[2]);
		o.d = 4;
		o['e'] = 5;
		print(o.d + o.e);
		delete o.a;
		print(typeof o.a, o.missing);
		var arr = [1, 2];
		arr.push(3, 4);
		print(arr.length, arr.join('-'));
		print(arr.pop(), arr.shift(), arr.length);
		arr.unshift(0);
		print(arr.join(','));
		var ks = '';
		for (var k in { p: 1, q: 2 }) ks += k;
		print(ks);
		var idxs = '';
		for (var i in ['a','b']) idxs += i;
		print(idxs);
	`)
	want := []string{"1 2 3", "9", "undefined undefined", "4 1-2-3-4", "4 1 2", "0,2,3", "pq", "01"}
	for i, w := range want {
		if h.prints[i] != w {
			t.Errorf("prints[%d] = %q, want %q", i, h.prints[i], w)
		}
	}
}

// TestForInNestedWalks: walks share the interpreter's key scratch, so a
// walk nested in a body, one re-entered through recursion, and one left by
// break, return or a throw must each see only their own keys, fixed at loop
// start, and leave the enclosing walk's keys intact.
func TestForInNestedWalks(t *testing.T) {
	h, _ := run(t, `
		var o = { a: 1, b: 2 }, s = '';
		for (var x in o) { for (var y in o) { s += x + y; } s += ';'; }
		print(s);
		function walk(v) {
			var out = '';
			for (var k in v) { out += k + (typeof v[k] === 'object' ? '(' + walk(v[k]) + ')' : ''); }
			return out;
		}
		print(walk({ p: { q: 1, r: { s: 2 } }, t: [9, 8] }));
		function first(v) { for (var k in v) { return k; } }
		s = '';
		for (var x in o) { s += x + first({ z: 1, w: 2 }); for (var y in [1, 2, 3]) { if (y === '1') break; s += y; } }
		print(s);
		s = '';
		for (var x in o) { try { for (var y in { m: 1 }) { throw y; } } catch (e) { s += x + e; } }
		print(s);
		s = '';
		for (var x in o) { s += x; o['n' + x] = 1; }
		print(s);
	`)
	want := []string{"aaab;babb;", "p(qr(s))t(01)", "az0bz0", "ambm", "ab"}
	for i, w := range want {
		if h.prints[i] != w {
			t.Errorf("prints[%d] = %q, want %q", i, h.prints[i], w)
		}
	}
}

func TestArrayHigherOrder(t *testing.T) {
	h, _ := run(t, `
		var a = [3, 1, 2];
		print(a.slice(0).sort(function(x, y) { return x - y; }).join(','));
		print(a.map(function(x) { return x * 10; }).join(','));
		print(a.filter(function(x) { return x > 1; }).join(','));
		print(a.reduce(function(acc, x) { return acc + x; }, 0));
		print(a.indexOf(2), a.indexOf(99));
		print([1,2,3].concat([4,5], 6).join(''));
		print([1,2,3,4].splice(1, 2).join(','));
		var sum = 0;
		a.forEach(function(x) { sum += x; });
		print(sum);
		print([5,6,7].reverse().join(','));
	`)
	want := []string{"1,2,3", "30,10,20", "3,2", "6", "2 -1", "123456", "2,3", "6", "7,6,5"}
	for i, w := range want {
		if h.prints[i] != w {
			t.Errorf("prints[%d] = %q, want %q", i, h.prints[i], w)
		}
	}
}

func TestMathAndGlobals(t *testing.T) {
	tests := []struct{ expr, want string }{
		{"Math.abs(-4)", "4"},
		{"Math.floor(2.9)", "2"},
		{"Math.ceil(2.1)", "3"},
		{"Math.round(2.5)", "3"},
		{"Math.sqrt(16)", "4"},
		{"Math.pow(2, 10)", "1024"},
		{"Math.min(3, 1, 2)", "1"},
		{"Math.max(3, 1, 2)", "3"},
		{"Math.PI > 3.14 && Math.PI < 3.15", "true"},
		{"parseInt('42px')", "42"},
		{"parseInt('-7')", "-7"},
		{"parseFloat('2.5abc')", "2.5"},
		{"isNaN(parseInt('abc'))", "true"},
		{"String(42)", "42"},
		{"Number('3.5')", "3.5"},
		{"isNaN(NaN)", "true"},
	}
	for _, tt := range tests {
		if got := evalExpr(t, tt.expr); got != tt.want {
			t.Errorf("%s = %q, want %q", tt.expr, got, tt.want)
		}
	}
}

func TestMathRandomDeterministic(t *testing.T) {
	src := `var s = ''; for (var i = 0; i < 3; i++) s += Math.random() + ';'; print(s);`
	h1, _ := run(t, src)
	h2, _ := run(t, src)
	if h1.prints[0] != h2.prints[0] {
		t.Errorf("Math.random not deterministic: %q vs %q", h1.prints[0], h2.prints[0])
	}
}

func TestRecursionAndNamedFuncExpr(t *testing.T) {
	h, _ := run(t, `
		function fib(n) { return n < 2 ? n : fib(n-1) + fib(n-2); }
		print(fib(15));
		var fact = function f(n) { return n <= 1 ? 1 : n * f(n-1); };
		print(fact(6));
	`)
	if h.prints[0] != "610" || h.prints[1] != "720" {
		t.Errorf("prints = %v", h.prints)
	}
}

func TestIncrementsAndCompound(t *testing.T) {
	h, _ := run(t, `
		var i = 5;
		print(i++, i, ++i, i--, --i);
		var o = { n: 1 };
		o.n++;
		o.n += 10;
		print(o.n);
		var a = [1];
		a[0] += 5;
		print(a[0]);
	`)
	if h.prints[0] != "5 6 7 7 5" {
		t.Errorf("inc/dec: %q", h.prints[0])
	}
	if h.prints[1] != "12" || h.prints[2] != "6" {
		t.Errorf("compound: %v", h.prints)
	}
}

func TestThrowTryCatch(t *testing.T) {
	h, _ := run(t, `
		try {
			throw 'boom';
		} catch (e) {
			print('caught ' + e);
		} finally {
			print('finally');
		}
	`)
	if h.prints[0] != "caught boom" || h.prints[1] != "finally" {
		t.Errorf("prints = %v", h.prints)
	}
}

func TestUncaughtThrowIsError(t *testing.T) {
	h := newTestHost()
	s, err := New("t.js", "throw 'kaput';", h, Config{})
	if err != nil {
		t.Fatal(err)
	}
	err = s.Start()
	var re *RuntimeError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "kaput") {
		t.Errorf("Start = %v", err)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []string{
		"missing();",
		"var x = null; x.field;",
		"var y; y.prop;",
		"var n = 5; n();",
	}
	for _, src := range cases {
		h := newTestHost()
		s, err := New("t.js", src, h, Config{})
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if err := s.Start(); err == nil {
			t.Errorf("%q: no runtime error", src)
		}
	}
}

func TestSyntaxErrors(t *testing.T) {
	cases := []string{
		"var = 5;",
		"function () {}",
		"if (x {}",
		"'unterminated",
		"var a = {key};",
		"1 +",
		"/* unclosed",
		"for (;;",
		"x ===== y",
	}
	for _, src := range cases {
		if _, err := New("t.js", src, newTestHost(), Config{}); err == nil {
			t.Errorf("%q: parsed without error", src)
		}
	}
}

// TestNonASCIIOutsideStringsIsSyntaxError: a character beyond ASCII that is
// not a letter fails to lex. The lexer used to read its first byte as a
// Latin-1 letter, lex an empty identifier and never advance.
func TestNonASCIIOutsideStringsIsSyntaxError(t *testing.T) {
	for _, src := range []string{"var a = 1 — 2;", "a → b", "x = “q”;", "var é = 1; print(é);"} {
		_, err := New("t.js", src, newTestHost(), Config{})
		if letters := strings.Contains(src, "é"); (err == nil) != letters {
			t.Errorf("%q: err = %v", src, err)
		}
	}
}

func TestBudgetStopsInfiniteLoop(t *testing.T) {
	h := newTestHost()
	s, err := New("spin.js", "while (true) {}", h, Config{StepBudget: 10_000, StartupBudgetFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	err = s.Start()
	if err == nil || !strings.Contains(err.Error(), errBudget.Error()) {
		t.Errorf("Start = %v, want budget error", err)
	}
}

func TestBudgetAppliesPerEntry(t *testing.T) {
	// A handler that loops forever must be cut off without killing the
	// script permanently — the next event gets a fresh budget (§4.5).
	h := newTestHost()
	s, err := New("h.js", `
		var calls = 0;
		subscribe('tick', function(m) {
			calls++;
			if (m.spin) { while (true) {} }
			print('ok ' + calls);
		});
	`, h, Config{StepBudget: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	h.subs[0].handler(msg.Map{"spin": true}, "")
	if len(h.errs) != 1 {
		t.Fatalf("errs = %v", h.errs)
	}
	h.subs[0].handler(msg.Map{"spin": false}, "")
	if len(h.prints) != 1 || h.prints[0] != "ok 2" {
		t.Errorf("prints = %v", h.prints)
	}
}

func TestSandboxNoHostLeaks(t *testing.T) {
	// Nothing outside the 11-method API + JS stdlib may be visible.
	for _, name := range []string{"require", "process", "os", "java", "Packages", "eval", "Function", "globalThis"} {
		h := newTestHost()
		s, err := New("t.js", "print(typeof "+name+");", h, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err != nil {
			t.Fatalf("start: %v", err)
		}
		if h.prints[0] != "undefined" {
			t.Errorf("%s visible in sandbox: %q", name, h.prints[0])
		}
	}
}

func TestSwitchStatement(t *testing.T) {
	h, _ := run(t, `
		function classify(x) {
			switch (x) {
			case 1:
			case 2:
				return 'small';
			case 'many':
				return 'words';
			default:
				return 'other';
			}
		}
		print(classify(1), classify(2), classify('many'), classify(99));
		// Fallthrough without break accumulates.
		var log = '';
		switch (2) {
		case 1:
			log += 'a';
		case 2:
			log += 'b';
		case 3:
			log += 'c';
			break;
		case 4:
			log += 'd';
		}
		print(log);
		// Strict matching: '1' does not match 1.
		var hit = 'none';
		switch ('1') {
		case 1:
			hit = 'number';
			break;
		default:
			hit = 'default';
		}
		print(hit);
		// No match, no default: nothing runs.
		var ran = false;
		switch (42) { case 1: ran = true; }
		print(ran);
	`)
	want := []string{"small small words other", "bc", "default", "false"}
	for i, w := range want {
		if h.prints[i] != w {
			t.Errorf("prints[%d] = %q, want %q", i, h.prints[i], w)
		}
	}
}

func TestSwitchParseErrors(t *testing.T) {
	for _, src := range []string{
		"switch (1) { default: 1; default: 2; }",
		"switch (1) { nonsense }",
		"switch (1) { case 1 }",
		"switch (1) { case 1:",
	} {
		if _, err := New("t.js", src, newTestHost(), Config{}); err == nil {
			t.Errorf("%q parsed", src)
		}
	}
}

func TestJSGlobalObjects(t *testing.T) {
	tests := []struct{ expr, want string }{
		{"Object.keys({ b: 1, a: 2 }).join(',')", "b,a"}, // insertion order
		{"Object.keys([1,2]).length", "0"},
		{"Array.isArray([])", "true"},
		{"Array.isArray({})", "false"},
		{"Array.isArray('s')", "false"},
		{"JSON.stringify({ b: 1, a: [true, null] })", `{"a":[true,null],"b":1}`},
		{"JSON.parse('{\"x\": [1, 2]}').x[1]", "2"},
		{"typeof JSON.parse('null')", "object"},
	}
	for _, tt := range tests {
		if got := evalExpr(t, tt.expr); got != tt.want {
			t.Errorf("%s = %q, want %q", tt.expr, got, tt.want)
		}
	}
	// Bad JSON throws a catchable error, like real JSON.parse.
	h, _ := run(t, `
		try { JSON.parse('{nope'); print('no error'); }
		catch (e) { print('caught'); }
	`)
	if len(h.prints) != 1 || h.prints[0] != "caught" {
		t.Errorf("JSON.parse throw: %v", h.prints)
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	h, _ := run(t, `
		// line comment
		var a = 1; // trailing
		/* block
		   comment */
		var b = /* inline */ 2;
		print(a + b);
	`)
	if h.prints[0] != "3" {
		t.Errorf("prints = %v", h.prints)
	}
}

func TestCallWithArgs(t *testing.T) {
	_, s := run(t, `function add(a, b) { return a + b; }`)
	out, err := s.Call("add", 2.0, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	if out.(float64) != 5 {
		t.Errorf("Call = %v", out)
	}
	if _, err := s.Call("nope"); err == nil {
		t.Error("Call(nope) succeeded")
	}
}

func TestArgumentsObject(t *testing.T) {
	h, _ := run(t, `
		function count() { return arguments.length; }
		print(count(1, 2, 3), count());
	`)
	if h.prints[0] != "3 0" {
		t.Errorf("arguments: %q", h.prints[0])
	}
}

func TestMissingArgsAreUndefined(t *testing.T) {
	h, _ := run(t, `function f(a, b) { return typeof b; } print(f(1));`)
	if h.prints[0] != "undefined" {
		t.Errorf("missing arg = %q", h.prints[0])
	}
}

func TestCommaOperatorInFor(t *testing.T) {
	h, _ := run(t, `
		var s = '';
		for (var i = 0, j = 10; i < j; i++, j--) s += '.';
		print(s.length);
	`)
	if h.prints[0] != "5" {
		t.Errorf("comma-for: %q", h.prints[0])
	}
}

func TestHasOwnProperty(t *testing.T) {
	h, _ := run(t, `
		var o = { x: 1 };
		print(o.hasOwnProperty('x'), o.hasOwnProperty('y'));
	`)
	if h.prints[0] != "true false" {
		t.Errorf("hasOwnProperty: %q", h.prints[0])
	}
}

func TestDeepScriptStackDepth(t *testing.T) {
	// Recursion must be bounded by the budget, not crash the Go stack.
	h := newTestHost()
	s, err := New("deep.js", `
		function rec(n) { return rec(n + 1); }
		rec(0);
	`, h, Config{StepBudget: 200_000, StartupBudgetFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err == nil {
		t.Error("infinite recursion terminated without error")
	}
}

func TestPathologicalNestingRejected(t *testing.T) {
	// Thousands of nested parens/brackets must produce a clean syntax
	// error, not a Go stack overflow — the sandbox holds against
	// adversarial input.
	deep := strings.Repeat("(", 10000) + "1" + strings.Repeat(")", 10000)
	if _, err := New("evil.js", "var x = "+deep+";", newTestHost(), Config{}); err == nil {
		t.Error("deep parens accepted")
	}
	deepArr := strings.Repeat("[", 10000) + strings.Repeat("]", 10000)
	if _, err := New("evil2.js", "var y = "+deepArr+";", newTestHost(), Config{}); err == nil {
		t.Error("deep arrays accepted")
	}
	blocks := strings.Repeat("{", 5000) + strings.Repeat("}", 5000)
	if _, err := New("evil3.js", blocks, newTestHost(), Config{}); err == nil {
		t.Error("deep blocks accepted")
	}
}

func TestRunawayRecursionCleanError(t *testing.T) {
	// Even with a huge step budget, recursion is cut off by the call-depth
	// limit with a RuntimeError, never a crash.
	h := newTestHost()
	s, err := New("rec.js", `function f(n) { return f(n + 1); } f(0);`, h,
		Config{StepBudget: 1 << 30, StartupBudgetFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	err = s.Start()
	var re *RuntimeError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "call stack") {
		t.Errorf("err = %v, want call-stack RuntimeError", err)
	}
	// The script remains usable for shallow calls afterwards.
	if _, err := s.Call("f"); err == nil {
		t.Error("f(0) should still recurse to the limit") // still errors
	}
}

func TestNumberFormatting(t *testing.T) {
	tests := []struct{ expr, want string }{
		{"1000000", "1000000"},
		{"1.5", "1.5"},
		{"60 * 1000", "60000"},
		{"-0.25", "-0.25"},
		{"1e21", "1e+21"},
	}
	for _, tt := range tests {
		if got := evalExpr(t, tt.expr); got != tt.want {
			t.Errorf("%s = %q, want %q", tt.expr, got, tt.want)
		}
	}
}

// TestNumbersPrintAsJavaScript: a number's string form, in a script and in
// json(), is ECMAScript's Number::toString — not Go's %g.
func TestNumbersPrintAsJavaScript(t *testing.T) {
	for _, tt := range []struct{ expr, want string }{
		{"'' + 1234567.5", "1234567.5"},
		{"'' + 0.00001", "0.00001"},
		{"1e-7", "1e-7"},
		{"'' + (-0)", "0"},
		{"String(-0)", "0"},
		{"json({n: 1e15})", `{"n":1000000000000000}`},
		{"json([1234567.5, 0.00001, 1e-7, -0])", "[1234567.5,0.00001,1e-7,0]"},
		{"[1e-7, -0, 1e21].join()", "1e-7,0,1e+21"},
	} {
		if got := evalExpr(t, tt.expr); got != tt.want {
			t.Errorf("%s = %q, want %q", tt.expr, got, tt.want)
		}
	}
}

// TestCallIndexedElement: calling through an index reads the element as
// reading it does — an array element is callable, not only a property.
func TestCallIndexedElement(t *testing.T) {
	h, _ := run(t, `
		var a = [function () { return 7; }];
		print(typeof a[0], a[0]());
		function f(x) { return 'f' + x; }
		a[1] = f;
		print(a[1](2), a[1 + 0]('i'));
		var o = {m: f};
		print(o['m'](3), 'abc'['toUpperCase'](), [1, 2]['join']('+'));
	`)
	want := []string{"function 7", "f2 fi", "f3 ABC 1+2"}
	if len(h.errs) != 0 || strings.Join(h.prints, "|") != strings.Join(want, "|") {
		t.Errorf("prints %q errs %v, want %q", h.prints, h.errs, want)
	}
}

func TestToMsgRoundTrip(t *testing.T) {
	h, _ := run(t, `publish('out', { n: 1.5, s: 'x', b: true, nil: null, arr: [1, 'two'], o: { k: 'v' }, fn: function() {} });`)
	if len(h.published) != 1 {
		t.Fatalf("published = %v", h.published)
	}
	m := tree(t, h.published[0].payload)
	want := msg.Map{
		"n": 1.5, "s": "x", "b": true, "nil": nil,
		"arr": []msg.Value{1.0, "two"},
		"o":   msg.Map{"k": "v"},
	}
	if !msg.Equal(m, want) {
		t.Errorf("payload = %#v", m)
	}
}

func TestFromMsgSortedKeys(t *testing.T) {
	v := fromMsg(msg.Map{"b": 1.0, "a": 2.0, "c": 3.0})
	o := v.(*object)
	if strings.Join(o.keys(), "") != "abc" {
		t.Errorf("keys = %v", o.keys())
	}
}

func TestValueHelpers(t *testing.T) {
	if typeName(undefined) != "undefined" || typeName(nil) != "object" {
		t.Error("TypeOf wrong")
	}
	if truthy(float64(0)) || !truthy(float64(1)) || truthy("") || !truthy("x") {
		t.Error("Truthy wrong")
	}
	if toString(newArray(1.0, "a")) != "1,a" {
		t.Errorf("array ToString = %q", toString(newArray(1.0, "a")))
	}
	if toNumber("  42 ") != 42 || toNumber(nil) != 0 || toNumber(true) != 1 {
		t.Error("ToNumber wrong")
	}
	a := newArray()
	a.setAt(2, "x")
	if a.len() != 3 || a.at(0) != value(undefined) || a.at(5) != value(undefined) {
		t.Error("Array growth wrong")
	}
	o := newObject()
	o.set("k", 1.0)
	o.set("k", 2.0)
	if o.Len() != 1 {
		t.Error("duplicate Set grew object")
	}
	o.delete("k")
	o.delete("k")
	if o.Len() != 0 {
		t.Error("Delete failed")
	}
}

func TestToMsgCycleDetected(t *testing.T) {
	o := newObject()
	o.set("self", o)
	if _, err := toMsg(o); err == nil {
		t.Error("cyclic ToMsg succeeded")
	}
}

func TestStopPreventsCallbacks(t *testing.T) {
	h, s := run(t, `subscribe('ch', function(m) { print('got'); });`)
	s.Stop()
	s.Stop() // idempotent
	if h.subs[0].releases != 1 {
		t.Errorf("releases = %d", h.subs[0].releases)
	}
	h.subs[0].handler(msg.Map{}, "")
	if len(h.prints) != 0 {
		t.Error("stopped script handled event")
	}
}

func BenchmarkFib20(b *testing.B) {
	h := newTestHost()
	s, err := New("bench.js", "function fib(n) { return n < 2 ? n : fib(n-1) + fib(n-2); }", h,
		Config{StepBudget: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Start(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Call("fib", 20.0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubscribeDispatch(b *testing.B) {
	h := newTestHost()
	s, err := New("bench.js", `
		var count = 0;
		subscribe('ch', function(m) { count += m.v; });
	`, h, Config{})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Start(); err != nil {
		b.Fatal(err)
	}
	payload := msg.Map{"v": 1.0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.subs[0].handler(payload, "")
	}
}

func ExampleScript() {
	h := newTestHost()
	s, _ := New("example.js", `
		setDescription('doc example');
		var sub = subscribe('battery', function(m) {
			publish('report', { voltage: m.voltage });
		}, { interval: 60 * 1000 });
		print('interval ' + 60 * 1000);
	`, h, Config{})
	s.Start()
	h.subs[0].handler(msg.Map{"voltage": 4.1}, "")
	fmt.Println(s.Description())
	fmt.Println(h.prints[0])
	fmt.Println(h.published[0].channel)
	// Output:
	// doc example
	// interval 60000
	// report
}
