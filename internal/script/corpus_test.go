package script

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"pogo/internal/msg"
	"pogo/internal/script/scripts"
)

var updateCorpus = flag.Bool("update-corpus", false, "rewrite testdata/corpus.golden from the current executor")

const corpusGolden = "testdata/corpus.golden"

// corpusCase is one program of the semantics corpus. After the body runs,
// every active subscription gets corpusMsg once, in subscription order, and
// then the timers it set fire in order.
type corpusCase struct {
	name   string
	src    string
	budget int // StepBudget for every entry; 0 means 100 000
}

// corpusMsg is what the corpus delivers to each subscription.
var corpusMsg = msg.Map{
	"v": 2.0, "s": "str", "neg": -1.5, "flag": true, "nil": nil,
	"arr": []msg.Value{1.0, "two", msg.Map{"k": "z"}},
	"obj": msg.Map{"b": 1.0, "a": 2.0},
}

// corpus covers every binding form, statement and expression kind of the
// language, the runtime errors, budgets that run out at an exact step, and
// the shapes of the bundled scripts. Its transcripts — output, Stats.Steps
// and error text with its line — are pinned in testdata/corpus.golden.
var corpus = []corpusCase{
	// ---- binding forms ----
	{name: "params", src: `
function f(a, b) { return a + ':' + b; }
function dup(a, a) { return a; }
print(f(1, 2), f(1), f(), dup(1, 2), dup(3));`},
	{name: "params/assign", src: `
function f(a) { a = a * 2; a += 1; return a; }
var a = 'global';
print(f(5), a);`},
	{name: "var/redeclare", src: `
function f() { var x = 1; var x; return x; }
function g() { var y = 1; var y = 2; return y; }
var top = 5; var top; print(f(), g(), top);
var t2 = 1, t3 = t2 + 1, t4; print(t2, t3, t4);`},
	{name: "var/blocks-share-frame", src: `
function f(c) { if (c) { var x = 1; } return typeof x; }
function g() { for (var i = 0; i < 2; i++) { var last = i; } { var inner = 'b'; } return i + last + inner; }
print(f(true), f(false), g());`},
	{name: "var/use-before-declare", src: `
var x = 'global';
function f() { var r = x; var x = 'local'; return r + ',' + x; }
function g() { var r = typeof y; var y = 1; return r + ',' + typeof y; }
print(f(), x, g());`},
	{name: "var/assign-before-declare", src: `
var y = 1;
function f() { y = 2; var y = 3; return y; }
print(f(), y);
function g() { z = 'implicit'; var z = 'local'; return z; }
print(g(), z);`},
	{name: "var/conditional-declare-fallthrough", src: `
var v = 'outer';
function f(c) {
  if (c) { var v = 'inner'; }
  v = v + '!';
  return v;
}
print(f(true), v, f(false), v);`},
	{name: "var/outer-local-fallthrough", src: `
function outer() {
  var x = 'o';
  function inner(c) { if (c) { var x = 'i'; } return x; }
  return inner(true) + inner(false);
}
print(outer());`},
	{name: "funcdecl/hoist-body", src: `
function f() { return h(); function h() { return 'h'; } }
print(f(), typeof h);
print(later());
function later() { return 'hoisted'; }`},
	{name: "funcdecl/hoist-per-block", src: `
function f() {
  var before = typeof g;
  { function g() { return 1; } }
  return before + ',' + typeof g;
}
function k(c) { if (c) { function kk() {} } return typeof kk; }
print(f(), k(true), k(false));
{ function tb() { return 'tb'; } }
print(tb());`},
	{name: "funcdecl/redeclare", src: `
function f() { return 1; }
var a = f();
function f() { return 2; }
print(a, f());
function g() { var h = 5; function h() {} return typeof h; }
print(g());`},
	{name: "funcdecl/nested-local", src: `
function helper() { return 'global'; }
function outer() {
  function helper() { return 'inner'; }
  function leaked() { return 1; }
  return helper();
}
print(outer(), helper(), typeof leaked);`},
	{name: "catch/var-in-frame", src: `
function f() { try { throw 'e1'; } catch (err) { } return err; }
var e = 'outer';
function g() { try { throw 'inner'; } catch (e) { } return e; }
print(f(), g(), e);
try { throw 1; } catch (q) { } print(q);
function h() { var r = typeof c; try { throw 2; } catch (c) { r += c; } return r + c; }
print(h());`},
	{name: "catch/closure", src: `
function f() {
  try { throw 'x'; } catch (e) { var get = function () { return e; }; }
  e = 'y';
  return get();
}
print(f());`},
	{name: "forin/declare", src: `
function f(o) { var ks = ''; for (var k in o) { ks += k; } return ks + '/' + k; }
print(f({a: 1, b: 2}), f({}), typeof k);
function g(o) { for (kk in o) {} return kk; }
print(g({p: 1, q: 2}), kk);
for (var top in [5, 6]) { } print(top);`},
	{name: "forin/outer-binding", src: `
function f() {
  var k = 'start';
  var fs = [];
  for (k in {a: 1, b: 2}) { fs.push(function () { return k; }); }
  var f0 = fs[0];
  return k + f0();
}
print(f());`},
	{name: "named-funcexpr/self", src: `
var fact = function me(n) { return n <= 1 ? 1 : n * me(n - 1); };
print(fact(5), typeof me);
var f = function s() { s = 5; return typeof s; };
print(f(), f());
var f2 = function s2() { var s2 = 1; return s2; };
var f3 = function s3(s3) { return s3; };
print(f2(), f3(7), f3());
var f4 = function s4(c) { if (c) { var s4 = 'local'; } return typeof s4; };
print(f4(true), f4(false));`},
	{name: "named-funcexpr/closure", src: `
function mk() {
  var n = 0;
  return function tick() { n++; return n > 2 ? n : tick(); };
}
var t = mk();
print(t(), t());`},
	{name: "arguments", src: `
function f() { return arguments.length + ':' + arguments[0]; }
print(f(), f('a', 'b'));
function g(a) { arguments = 3; return arguments + a; }
print(g(1));
function h(arguments) { return arguments.length; }
print(h('abc'), typeof arguments);
function o(a, b) { var x = arguments; return (function () { return x.length + arguments.length; })(9); }
print(o(1, 2, 3));
function p(a) { arguments[0] = 'changed'; return a + arguments[0]; }
print(p('orig'));`},
	{name: "shadowing", src: `
var v = 'g';
function f() {
  var v = 'f';
  function g() { var v = 'g2'; return v; }
  function h() { return v; }
  return g() + h() + v;
}
print(f() + v);`},
	{name: "closures/loop-var", src: `
function mk() {
  var fs = [];
  for (var i = 0; i < 3; i++) { fs.push(function () { return i; }); }
  return fs;
}
var fs = mk();
var f0 = fs[0], f2 = fs[2];
print(f0(), f2(), fs.length);
var gs = [];
for (var j = 0; j < 3; j++) { (function (jj) { gs.push(function () { return jj; }); })(j); }
var g0 = gs[0], g2 = gs[2];
print(g0(), g2(), j);`},
	{name: "closures/counter", src: `
function counter() { var n = 0; return function () { n++; return n; }; }
var c1 = counter(), c2 = counter();
c1(); c1();
print(c1(), c2());
function pair() {
  var v = 0;
  return { get: function () { return v; }, set: function (x) { v = x; } };
}
var p = pair(); p.set(42); print(p.get());`},
	{name: "closures/three-levels", src: `
function a() {
  var x = 1;
  function b() {
    var y = 2;
    function c() { x++; return x + y; }
    return c;
  }
  return b();
}
var c = a();
print(c(), c(), a()());
function skip() {
  var s = 's';
  function mid() { return function () { return s; }; }
  return mid()();
}
print(skip());`},
	{name: "closures/frame-reuse", src: `
function mk(n) { return function () { return n; }; }
function plain(n) { var m = n * 2; return m; }
var a = mk(1);
plain(5);
var b = mk(2);
plain(6);
print(a(), b(), plain(7));`},
	{name: "closures/recursive-capture", src: `
function build(n) {
  if (n === 0) { return []; }
  var rest = build(n - 1);
  rest.push(function () { return n; });
  return rest;
}
var fs = build(4);
var out = '';
for (var i = 0; i < fs.length; i++) { var f = fs[i]; out += f(); }
print(out);`},
	{name: "typeof/undeclared", src: `
print(typeof nope, typeof undefined, typeof null, typeof 1, typeof 's', typeof true);
print(typeof {}, typeof [], typeof function () {}, typeof print, typeof Math, typeof Math.floor);
function f() { return typeof alsoNope; }
print(f());`},
	{name: "typeof/member-of-undeclared", src: `print(typeof nope.x);`},
	{name: "implicit-globals", src: `
function f() { implicitG = 42; }
f();
print(implicitG);
function g() { return function () { deepG = 'deep'; }; }
g()();
print(deepG, typeof f);
print = function (x) { log('print replaced: ' + x); };
print('hi');`},
	{name: "globals/builtins-overwritten", src: `
var Math = { floor: function (x) { return 'mine'; } };
print(Math.floor(1.5));
function f() { return parseInt('12px') + 1; }
print(f());
parseInt = function () { return 0; };
print(f());`},
	{name: "globals/cache-after-declare", src: `
function read() { return typeof later; }
print(read());
later = 1;
print(read());
var later2;
function r2() { return later2; }
print(r2());
later2 = 'set';
print(r2());`},

	// ---- statements ----
	{name: "stmt/if-else", src: `
function f(x) { if (x > 1) return 'big'; else if (x > 0) { return 'one'; } else return 'small'; }
print(f(2), f(1), f(0));
if (0) print('no');
if (1) ; else print('no');`},
	{name: "stmt/while", src: `
var n = 0, s = '';
while (n < 10) { n += 3; if (n === 6) continue; s += n; }
print(n, s);
while (true) { n--; if (n < 5) break; }
print(n);`},
	{name: "stmt/do-while", src: `
var i = 0, s = '';
do { i++; if (i === 2) continue; s += i; } while (i < 4);
do s += '!'; while (false);
do { break; } while (true);
print(s, i);`},
	{name: "stmt/for", src: `
var s = 0;
for (var i = 0; i < 5; i++) s += i;
var j;
for (j = 10; j > 7; j--) { s += j; }
for (;;) { s++; if (s > 50) break; }
for (var k = 0; ; k++) { if (k === 3) break; }
for (var a = 0, b = 10; a < b; a++, b--) { if (a === 2) continue; s += a * b; }
print(s, i, j, k, a, b);`},
	{name: "stmt/for-in", src: `
var o = {c: 1, a: 2, b: 3}, s = '';
for (var k in o) { if (k === 'a') continue; s += k + o[k]; }
for (var i in [7, 8, 9]) { s += i; if (i === '1') break; }
for (var n in null) { s += 'null'; }
for (var u in undefined) { s += 'undef'; }
print(s, k, i, typeof n);`},
	{name: "stmt/for-in-number", src: `
var s = 'before';
for (var k in 5) { s = 'in'; }
print(s);`},
	{name: "stmt/for-in-string", src: `for (var k in 'ab') { print(k); }`},
	{name: "stmt/for-in-mutating", src: `
var o = {a: 1, b: 2};
var seen = '';
for (var k in o) { seen += k; delete o.b; o.z = 9; }
print(seen, Object.keys(o).join(','));`},
	{name: "stmt/return", src: `
function none() { return; }
function early(x) { if (x) { return 'early'; } print('late'); }
function loop() { for (var i = 0; ; i++) { while (true) { if (i === 3) return i; break; } } }
print(typeof none(), early(true), typeof early(false), loop());`},
	{name: "stmt/return-top-level", src: `print('a'); return; print('b');`},
	{name: "stmt/break-top-level", src: `print('a'); break; print('b');`},
	{name: "stmt/continue-top-level", src: `print('a'); continue;`},
	{name: "stmt/break-in-handler", src: `
subscribe('ch', function (m) { print('in'); break; });`},
	// A break or continue in a function does not reach the loop of its
	// caller: it fails the call, at the line of the call.
	{name: "stmt/break-in-called-function", src: `
function f() { print('f'); break; }
for (var i = 0; i < 3; i++) {
  f();
  print('after', i);
}
print('end');`},
	{name: "stmt/continue-in-called-function", src: `
function g() { continue; }
var n = 0;
while (n < 3) {
  n++;
  try { g(); } catch (e) { print('caught', e); }
  print('n', n);
}`},
	{name: "stmt/switch", src: `
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
var log = '';
switch (2) { case 1: log += 'a'; case 2: log += 'b'; case 3: log += 'c'; break; case 4: log += 'd'; }
switch ('1') { case 1: log += 'num'; break; default: log += 'def'; }
switch (42) { case 1: log += 'x'; }
switch (5) { default: log += 'D'; case 6: log += 'six'; break; case 7: log += 'seven'; }
print(log);`},
	{name: "stmt/switch-evaluation-order", src: `
var trace = '';
function t(x) { trace += x; return x; }
switch (t(3)) { case t(1): trace += '!'; break; default: trace += 'd'; case t(3): trace += 'hit'; case t(4): trace += 'fall'; }
print(trace);
for (var i = 0; i < 3; i++) { switch (i) { case 1: continue; default: trace += i; } trace += '.'; }
print(trace);`},
	{name: "stmt/throw-try", src: `
try { throw 'boom'; } catch (e) { print('caught ' + e); } finally { print('finally'); }
try { print('body'); } finally { print('fin2'); }
function rethrow() { try { throw 'inner'; } catch (e) { throw e + '+'; } }
try { rethrow(); } catch (e2) { print(e2); }
try { try { throw 1; } finally { print('inner finally'); } } catch (x) { print('outer', x); }
try { null.x; } catch (e3) { print('never'); }`},
	{name: "stmt/throw-object", src: `throw {code: 7};`},
	{name: "stmt/throw-in-handler", src: `
subscribe('ch', function (m) { throw 'handler ' + m.v; });`},
	{name: "stmt/try-return-finally", src: `
function a() { try { return 1; } finally { print('fa'); } }
function b() { try { return 1; } finally { return 3; } }
function c() { try { return 1; } finally { (function () { return 2; })(); } }
function d() { try { throw 'x'; } catch (e) { return 'c' + e; } finally { print('fd'); } }
function e() { for (var i = 0; i < 3; i++) { try { if (i === 1) break; } finally { print('fe' + i); } } return i; }
function f() { for (var i = 0; i < 3; i++) { try { continue; } finally { print('ff' + i); } } return i; }
print(a(), b(), c(), d(), e(), f());`},
	{name: "stmt/finally-throws", src: `
function f() { try { return 1; } finally { throw 'from finally'; } }
try { f(); } catch (e) { print(e); }
function g() { try { throw 'first'; } finally { throw 'second'; } }
try { g(); } catch (e) { print(e); }`},
	{name: "stmt/catch-throws", src: `
try { try { throw 'a'; } catch (e) { throw e + 'b'; } finally { print('fin'); } } catch (e) { print(e); }`},
	{name: "stmt/empty-and-blocks", src: `
;;
{ }
{ var inBlock = 1; { inBlock++; } }
print(inBlock);`},

	// ---- expressions ----
	{name: "expr/literals", src: `
print(1, 1.5, -0.25, 'str', "dq", true, false, null, undefined, 0x10, 1e3, .5);
print([], [1, [2, [3]]], {}, {a: 1}.a, {'quoted key': 2}['quoted key'], {1: 'one'}[1]);
print({a: 1, a: 2}.a, Object.keys({b: 1, a: 2, b: 3}).join(','));`},
	{name: "expr/array-object", src: `
var a = [1, 2, 3];
a[5] = 6;
a.length = 2;
print(a.length, a, a[0], a[9], a['0'], a['length']);
var o = {x: 1, y: {z: 'deep'}};
o.w = 2; o['v'] = 3; o.y.z += '!';
print(o.x, o.y.z, o.w, o.v, o.missing, Object.keys(o).join(','));
delete o.x; delete o['w']; delete o.nothing;
print(Object.keys(o).join(','), delete 5, delete a[0]);`},
	{name: "expr/string-index", src: `
var s = 'hello';
print(s[0], s[4], s[5], s[-1], s.length, s['length'], s.charAt(1), s.toUpperCase());`},
	{name: "expr/member-null", src: `var x = null; x.field;`},
	{name: "expr/member-undefined", src: `
function f() { var y; return y.prop; }
f();`},
	{name: "expr/index-undefined", src: `var u; print(u[0]);`},
	{name: "expr/call-forms", src: `
var o = {n: 'o', m: function (x) { return x === o; }, get: function () { return o.n; }};
print(o.m(o), o.get(), o['get'](), (function () { return 'iife'; })(), 'abc'.toUpperCase(), [1, 2]['join']('+'));
var arr = [3, 1, 2];
print(arr.sort().join('-'), 'a-b'.split('-').length, [1, 2].concat([3], 4).join(''));
function curry(a) { return function (b) { return a + b; }; }
print(curry(1)(2));`},
	{name: "expr/call-not-function", src: `var n = 5; n();`},
	{name: "expr/call-undefined-method", src: `var o = {}; o.nope();`},
	{name: "expr/call-undeclared", src: `missing();`},
	{name: "expr/call-indexed-element", src: `
var a = [function () { return 7; }];
print(typeof a[0]);
print(a[0]());`},
	{name: "expr/unary", src: `
var x = 5, s = '3';
print(!x, !0, !!'', -x, -s, +s, +'', +'abc', -'-2', !null, +true, -undefined);`},
	{name: "expr/increments", src: `
var a = [5], o = {n: 1}, i = 0;
print(i++, i, ++i, i--, --i, i);
print(a[0]++, a[0], ++a[0], o.n++, ++o.n, o.n, o['n']--, --o['n']);
var u; u++; print(u);
var st = '5'; st++; print(st, typeof st);`},
	{name: "expr/increment-evaluates-twice", src: `
var arr = [0, 0, 0], k = 0;
function idx() { k++; return k; }
arr[idx()]++;
print(arr.join(','), k);
var objs = [{n: 0}, {n: 0}, {n: 0}], c = 0;
function pick() { return objs[c++]; }
pick().n++;
print(c, objs[0].n, objs[1].n);
arr[idx()] += 10;
print(arr.join(','), k);`},
	{name: "expr/binary", src: `
print(7 / 2, 7 % 3, -7 % 3, 2 - '1', '6' * '7', 1 / 0, -1 / 0, 0 / 0, 5 % 0);
print(1 < 2, 'a' < 'b', 'b' > 'a', '10' < '9', 10 < '9', 'a' <= 'a', null >= 0, undefined < 1);
print(1 == '1', 1 === '1', null == undefined, null === undefined, 0 == false, '' == 0, 'a' != 'a', 1 !== 1);
var o = {}; print(o == o, o === {}, [1] == 1, true == 1, 'true' == true, NaN == NaN);
print((1, 2, 3));`},
	{name: "expr/logical-ternary", src: `
var calls = '';
function t(v) { calls += v; return v; }
print(t(0) && t(1), t(2) && t(3), t(0) || t(4), t(5) || t(6), calls);
print(null || 'default', 'x' && 'y', 1 ? 'yes' : 'no', '' ? 'yes' : 'no', 0 ? 1 : 2 ? 3 : 4);`},
	{name: "expr/assign-ops", src: `
var x = 10;
x += 5; print(x); x -= 3; print(x); x *= 2; print(x); x /= 4; print(x); x %= 4; print(x);
var s = 'a'; s += 1; s += null; print(s);
var o = {}; o.a = o.b = 3; print(o.a + o.b);
var a = []; a[0] = a[1] = 'z'; print(a.join(''));
var chain = x = 99; print(chain, x);`},
	{name: "expr/assign-order", src: `
var trace = '';
function t(v) { trace += v; return v; }
var a = [];
a[t(1)] = t(2);
var o = {};
o[t('k')] = t('v');
t({}).p = t(3);
print(trace, a[1], o.k);`},
	{name: "expr/assign-errors-array", src: `var a = []; a[-1] = 1;`},
	{name: "expr/assign-errors-fraction", src: `var a = []; a[1.5] = 1;`},
	{name: "expr/assign-errors-length", src: `var a = [1]; a.length = -1;`},
	{name: "expr/assign-errors-array-prop", src: `var a = [1]; a.foo = 1;`},
	{name: "expr/assign-errors-scalar", src: `var n = 1; n.foo = 1;`},
	{name: "expr/assign-errors-null", src: `var n = null; n['foo'] = 1;`},
	{name: "expr/chains", src: `
var nan = 0 / 0, inf = 1 / 0, o = {a: 1}, arr = [1, 'x', null];
print('' + nan + ' ' + inf, 1 + 2 + 'a', 'a' + 1 + 2, o + 1, arr + '|' + arr, [] + []);
print(null + 1 + 'a', undefined + 1, true + 1 + 'a', 'a' + (1 + 2) + 'b');
var s = ''; for (var i = 0; i < 3; i++) { s = s + i + ','; } print(s);
print('x' + json({k: 'a' + 1}) + '!', json([1, 'a']) + json(null));`},
	{name: "expr/numbers", src: `
print(1000000, 1.5, 60 * 1000, -0.25, 1e21, 1e20, 123456789012, 0.1 + 0.2, 2 / 3);
print('' + 1234567.5, '' + 0.00001, 1e-7, '' + (-0), String(-0), 1e15, 1e16 + 1);
print(json({a: 1e15, b: 1e21, c: 1234567.5, d: 0.00001, e: -0, f: 1e-7}));`},
	{name: "expr/funclit", src: `
var f = function () { return 'anon'; };
var g = function named() { return 'named'; };
print(f(), g(), '' + g, typeof f, f === f);`},

	// ---- builtins and the host API ----
	{name: "builtins/array-methods", src: `
var a = [3, 1, 2];
print(a.push(4), a.pop(), a.shift(), a.unshift(0), a.join('|'), a.indexOf(2), a.indexOf(9));
print(a.slice(1).join(), a.slice(-1).join(), a.splice(1, 1).join(), a.join(), a.reverse().join());
print([1, 2, 3].map(function (x) { return x * 2; }).join(), [1, 2, 3, 4].filter(function (x) { return x % 2; }).join());
print([1, 2, 3].reduce(function (s, x) { return s + x; }), [1, 2].reduce(function (s, x) { return s + x; }, 10));
var each = ''; [5, 6].forEach(function (x, i) { each += i + ':' + x + ' '; }); print(each);
print([3, 10, 2].sort(function (a, b) { return a - b; }).join(), [3, 10, 2].sort().join());`},
	{name: "builtins/reduce-empty", src: `[].reduce(function (a, b) { return a; });`},
	{name: "builtins/foreach-not-function", src: `[1].forEach(5);`},
	{name: "builtins/string-methods", src: `
var s = ' Hello, World ';
print(s.trim(), s.indexOf('o'), s.lastIndexOf('o'), s.slice(1, 6), s.substring(8), s.charCodeAt(1));
print('a,b,,c'.split(',').length, 'abc'.split('').length, 'x'.split().length, 'aXbX'.replace('X', '-'));
print('abc'.startsWith('ab'), 'abc'.endsWith('bc'), 'ABC'.toLowerCase(), 'q'.toString(), 'abc'.nope);`},
	{name: "builtins/globals", src: `
print(Math.floor(2.7), Math.ceil(2.1), Math.round(2.5), Math.abs(-3), Math.max(1, 5, 3), Math.min(), Math.pow(2, 10), Math.sqrt(16));
print(parseInt('42px'), parseInt('-7'), parseInt('x'), parseFloat('3.5e2xyz'), parseFloat('.5'), isNaN('x'), isNaN('1'));
print(String(12), Number('12') + 1, NaN, Infinity, Object.keys({b: 1, a: 2}).join(), Array.isArray([]));
print(JSON.stringify({b: 1, a: [true, null]}), JSON.parse('{"x": [1, 2]}').x[1], typeof JSON.parse('null'));
print(Math.random() < 1, Math.PI > 3, typeof Math.E);
var h = {x: 1}; print(h.hasOwnProperty('x'), h.hasOwnProperty('y'), [].hasOwnProperty);`},
	{name: "builtins/json-parse-throws", src: `
try { JSON.parse('{nope'); print('no error'); } catch (e) { print(typeof e); }
JSON.parse('[');`},
	{name: "api/publish-subscribe", src: `
setDescription('corpus');
setAutoStart(false);
var sub = subscribe('ch', function (m, origin) {
  print('got', m.v, m.s, m.neg, m.flag, m.nil, m.arr.length, m.arr[2].k, m.obj.a, origin);
  for (var k in m.obj) { print(k); }
  publish('echo', m);
  m.v = 3;
  publish('edited', m);
  publish({swapped: true}, 'swap');
  log('logged ' + json(m.arr));
  logTo('named', 'a', 1, null);
}, {interval: 1000});
print(sub.channel, typeof sub.release, typeof sub.renew);
publish('out', {n: 1.5, s: 'x', b: true, nil: null, arr: [1, 'two'], o: {k: 'v'}, fn: function () {}});`},
	{name: "api/release-renew", src: `
var a = subscribe('a', function () { print('a'); });
var b = subscribe('b', function () { print('b'); });
a.release();
b.release(); b.renew();`},
	{name: "api/freeze-thaw", src: `
print(thaw());
freeze({count: 3, list: [1, 2]});
var t = thaw();
print(t.count, t.list.length, json(t));`},
	{name: "api/timeouts", src: `
var n = 0;
function tick() { n++; print('tick ' + n); if (n < 3) { setTimeout(tick, 10); } }
setTimeout(tick, 5);
setTimeout(function () { print('once'); }, -1);`},
	{name: "api/errors", src: `
try { publish('only one'); } catch (e) { print('not catchable'); }`},
	{name: "api/publish-function", src: `publish('x', function () {});`},
	{name: "api/subscribe-bad", src: `subscribe('x', 5);`},
	{name: "api/logTo-empty", src: `logTo();`},

	// ---- runtime limits ----
	{name: "budget/while", budget: 1000, src: `
var i = 0;
while (true) {
  i++;
}`},
	{name: "budget/exact-in-call", budget: 137, src: `
function work(n) {
  var s = 0;
  for (var i = 0; i < n; i++) {
    s += i;
  }
  return s;
}
print(work(5));
print(work(100));`},
	{name: "budget/chain", budget: 50, src: `
var s = '';
for (var i = 0; ; i++) {
  s = s + i + ',' + 'x';
}`},
	{name: "budget/handler", budget: 300, src: `
var calls = 0;
subscribe('ch', function (m) {
  calls++;
  var t = 0;
  while (t < 1000) { t += m.v; }
  print('done', t);
});`},
	{name: "budget/enough", budget: 20_000, src: `
function fib(n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
print(fib(10));`},
	{name: "limits/call-depth", budget: 1 << 30, src: `
function f(n) { return f(n + 1); }
f(0);`},
	{name: "limits/call-depth-caught", budget: 1 << 30, src: `
function f(n) { return f(n + 1); }
try { f(0); } catch (e) { print('caught'); }
print('unreached');`},

	// ---- shapes of the bundled scripts ----
	{name: "shape/dbscan", src: `
function dot(a, b) { var sum = 0; for (var k in a) { if (b.hasOwnProperty(k)) { sum += a[k] * b[k]; } } return sum; }
function norm(a) { var sum = 0; for (var k in a) { sum += a[k] * a[k]; } return Math.sqrt(sum); }
var x = {p: 0.5, q: 0.25}, y = {p: 1, r: 2};
print(dot(x, y), norm(x), dot(x, y) / (norm(x) * norm(y)));`},
	{name: "shape/geofence", src: `
function inside(loc, poly) {
  var c = false;
  var j = poly.length - 1;
  for (var i = 0; i < poly.length; i++) {
    var xi = poly[i].x, yi = poly[i].y, xj = poly[j].x, yj = poly[j].y;
    if ((yi > loc.y) !== (yj > loc.y) && loc.x < (xj - xi) * (loc.y - yi) / (yj - yi) + xi) { c = !c; }
    j = i;
  }
  return c;
}
var poly = [{x: 1, y: 1}, {x: 2, y: 2}, {x: 3, y: 0}];
print(inside({x: 2, y: 1}, poly), inside({x: 10, y: 10}, poly));`},

	// ---- appended cases ----
	// New cases go here, after every other, so that the seed numbers
	// FuzzScript gives the cases above stay as they are.
	{name: "api/publish-keys-equal-after-repair", src: `
var o = {};
o['é'.slice(0, 1)] = 1;
o['Ā'.slice(0, 1)] = 2;
print(Object.keys(o).length);
publish('x', o);`},
	{name: "api/json-keys-equal-after-repair", src: `
var o = {};
o['é'.slice(0, 1)] = 1;
o['Ā'.slice(0, 1)] = 2;
print(json({ok: true}));
print(json(o));`},
}

// runCorpusCase runs one corpus program and renders its transcript.
func runCorpusCase(c corpusCase) string {
	budget := c.budget
	if budget == 0 {
		budget = 100_000
	}
	h := newTestHost()
	var b strings.Builder
	s, err := New(c.name, c.src, h, Config{StepBudget: budget, StartupBudgetFactor: 1})
	if err != nil {
		fmt.Fprintf(&b, "parse: %v\n", err)
		return b.String()
	}
	if err := s.Start(); err != nil {
		fmt.Fprintf(&b, "start: %v\n", err)
	}
	for i := 0; i < len(h.subs); i++ {
		if sub := h.subs[i]; sub.active {
			sub.handler(corpusMsg, "peer")
		}
	}
	for i := 0; i < len(h.timers) && i < 10; i++ {
		h.timers[i].fn()
	}
	renderHost(&b, h)
	fmt.Fprintf(&b, "description %q autostart %v\n", s.Description(), s.AutoStart())
	renderStats(&b, s)
	return b.String()
}

// renderHost writes what a script did through its host.
func renderHost(b *strings.Builder, h *testHost) {
	for _, p := range h.prints {
		fmt.Fprintf(b, "print %s\n", p)
	}
	for _, l := range h.logs {
		fmt.Fprintf(b, "log %s\n", l)
	}
	for _, p := range h.published {
		j, err := msg.AppendJSON(nil, p.payload)
		if err != nil {
			fmt.Fprintf(b, "publish %s: error %v\n", p.channel, err)
			continue
		}
		fmt.Fprintf(b, "publish %s %s\n", p.channel, j)
	}
	for _, sub := range h.subs {
		fmt.Fprintf(b, "sub %s params %v active %v releases %d renews %d\n",
			sub.channel, sub.params, sub.active, sub.releases, sub.renews)
	}
	names := make([]string, 0, len(h.frozen))
	for k := range h.frozen {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		j, _ := msg.AppendJSON(nil, h.frozen[k])
		fmt.Fprintf(b, "frozen %s %s\n", k, j)
	}
	for _, t := range h.timers {
		fmt.Fprintf(b, "timer %v\n", t.delay)
	}
	for _, err := range h.errs {
		fmt.Fprintf(b, "error %v\n", err)
	}
}

func renderStats(b *strings.Builder, s *Script) {
	st := s.StatsSnapshot()
	fmt.Fprintf(b, "entries %d errors %d publishes %d deadline %d steps %d\n",
		st.Entries, st.Errors, st.Publishes, st.DeadlineExceeded, st.Steps)
}

// appCorpus runs the bundled scripts over seeded input and renders each
// one's transcript, keyed "app/<script>".
func appCorpus(t testing.TB) map[string]string {
	out := map[string]string{}
	rng := rand.New(rand.NewSource(7))
	start := func(name string) (*testHost, *Script) {
		h := newTestHost()
		s, err := New(name, scripts.MustSource(name), h, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err != nil {
			t.Fatalf("start %s: %v", name, err)
		}
		return h, s
	}
	handler := func(h *testHost, channel string) func(msg.Value, string) {
		for _, sub := range h.subs {
			if sub.channel == channel {
				return sub.handler
			}
		}
		t.Fatalf("no subscription to %s", channel)
		return nil
	}
	enc := func(v msg.Value) msg.Value {
		r, err := msg.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	pre := "" // what a run notes before render
	render := func(name string, h *testHost, s *Script) {
		var b strings.Builder
		b.WriteString(pre)
		pre = ""
		renderHost(&b, h)
		renderStats(&b, s)
		out["app/"+name] = b.String()
	}

	// scan.js: 40 scans of 0–24 access points, some locally administered,
	// RSSI integral or not, now and then out of range.
	h, s := start("scan.js")
	scan := handler(h, "wifi-scan")
	var scans []msg.Value
	for i := 0; i < 40; i++ {
		aps := make([]msg.Value, rng.Intn(25))
		for j := range aps {
			rssi := float64(-110 + rng.Intn(70))
			if rng.Intn(3) == 0 {
				rssi += rng.Float64()
			}
			aps[j] = msg.Map{
				"bssid": fmt.Sprintf("00:1a:%02x:%02x", rng.Intn(8), rng.Intn(256)),
				"ssid":  fmt.Sprintf("net-%d", rng.Intn(5)),
				"rssi":  rssi,
				"local": rng.Intn(8) == 0,
			}
		}
		m := enc(msg.Map{"timestamp": float64(1_700_000_000_000 + i*60_000), "aps": aps})
		scans = append(scans, m)
		scan(m, "")
	}
	render("scan.js", h, s)

	// clustering.js: dwells at a few places with noisy readings, walks in
	// between, and a restart from the frozen state part way.
	h, s = start("clustering.js")
	places := []map[string]float64{
		{"h1": 0.9, "h2": 0.7, "h3": 0.5},
		{"o1": 0.8, "o2": 0.6, "o3": 0.3, "o4": 0.2},
		{"c1": 0.5},
	}
	var samples []msg.Value
	tm := 1000.0
	for _, dwell := range []int{12, 3, 20, 8, 15} {
		p := places[rng.Intn(len(places))]
		for i := 0; i < dwell; i++ {
			aps := msg.Map{}
			keys := make([]string, 0, len(p))
			for k := range p {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				if rng.Intn(6) > 0 {
					aps[k] = p[k] + (rng.Float64()-0.5)*0.2
				}
			}
			if rng.Intn(4) == 0 {
				aps[fmt.Sprintf("stray-%d", rng.Intn(9))] = rng.Float64()
			}
			samples = append(samples, enc(msg.Map{"t": tm, "aps": aps}))
			tm += 60
		}
	}
	feed := handler(h, "scans")
	for i, m := range samples {
		if i == len(samples)/2 {
			s.Stop()
			s2, err := New("clustering.js", scripts.MustSource("clustering.js"), h, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if err := s2.Start(); err != nil {
				t.Fatal(err)
			}
			var first strings.Builder
			renderStats(&first, s)
			pre, s = "restart after "+first.String(), s2
			feed = h.subs[len(h.subs)-1].handler
		}
		feed(m, "")
	}
	render("clustering.js", h, s)

	// collect.js: clusters from several devices, geo results in another
	// order, and one unknown id.
	h, s = start("collect.js")
	clusters, geo := handler(h, "clusters"), handler(h, "geo-result")
	for i := 0; i < 6; i++ {
		clusters(enc(msg.Map{
			"enter": float64(1000 + i), "exit": float64(2000 + i), "samples": float64(5 + i),
			"aps": msg.Map{"h1": 0.9, fmt.Sprintf("x%d", i): 0.25 * float64(i)},
		}), fmt.Sprintf("device%d", i%3))
	}
	for _, i := range []int{3, 1, 6, 2, 5, 4, 9} {
		geo(enc(msg.Map{"id": fmt.Sprintf("req-%d", i), "lat": 52 + float64(i)/7, "lon": 4.35}), "")
	}
	render("collect.js", h, s)

	// roguefinder.js: locations in and out of the polygon, each followed
	// by a scan delivered only while the subscription is active.
	h, s = start("roguefinder.js")
	loc := handler(h, "location")
	var wifi *testSub
	for _, sub := range h.subs {
		if sub.channel == "wifi-scan" {
			wifi = sub
		}
	}
	for i := 0; i < 20; i++ {
		loc(enc(msg.Map{"lat": rng.Float64() * 4, "lon": rng.Float64() * 3}), "")
		if wifi.active {
			wifi.handler(scans[i], "")
		}
	}
	render("roguefinder.js", h, s)

	// The collectors and the battery reporter on what their phones send.
	h, s = start("roguefinder-collect.js")
	for i := 0; i < 5; i++ {
		handler(h, "filtered-scans")(scans[i], fmt.Sprintf("phone-%d", i))
	}
	render("roguefinder-collect.js", h, s)
	h, s = start("battery.js")
	var reports []msg.Value
	for i := 0; i < 10; i++ {
		handler(h, "battery")(enc(msg.Map{
			"voltage": 3.6 + rng.Float64()*0.6, "level": float64(100-i) / 100, "timestamp": float64(i * 60_000),
		}), "")
		reports = append(reports, enc(h.published[len(h.published)-1].payload))
	}
	render("battery.js", h, s)
	h, s = start("battery-collect.js")
	for i, r := range reports {
		handler(h, "battery-report")(r, fmt.Sprintf("dev%d", i%2))
	}
	render("battery-collect.js", h, s)
	return out
}

// corpusTranscripts runs the whole corpus.
func corpusTranscripts(t testing.TB) map[string]string {
	out := appCorpus(t)
	for _, c := range corpus {
		if _, dup := out[c.name]; dup {
			t.Fatalf("corpus: duplicate case %s", c.name)
		}
		out[c.name] = runCorpusCase(c)
	}
	return out
}

// TestSemanticsCorpus: every corpus program and bundled script does what
// the golden says — the same output, the same errors at the same lines and
// the same Stats.Steps. Regenerate with -update-corpus only for a change of
// behaviour that is meant.
func TestSemanticsCorpus(t *testing.T) {
	got := corpusTranscripts(t)
	names := make([]string, 0, len(got))
	for k := range got {
		names = append(names, k)
	}
	sort.Strings(names)
	if *updateCorpus {
		var b strings.Builder
		for _, k := range names {
			fmt.Fprintf(&b, "=== %s\n%s", k, got[k])
		}
		if err := os.WriteFile(corpusGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(corpusGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, block := range strings.Split(string(raw), "=== ")[1:] {
		name, body, _ := strings.Cut(block, "\n")
		want[name] = body
	}
	for _, k := range names {
		w, ok := want[k]
		if !ok {
			t.Errorf("%s: not in %s", k, corpusGolden)
			continue
		}
		if got[k] != w {
			t.Errorf("%s:\n got:\n%s want:\n%s", k, got[k], w)
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: in %s but not in the corpus", k, corpusGolden)
		}
	}
}
