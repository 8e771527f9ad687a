package script

import (
	"strings"
	"testing"
)

// chainPrelude defines the operands of the chain table.
const chainPrelude = `var nan = 0 / 0, inf = 1 / 0, ninf = -1 / 0, nz = -0, big = 1e21;
var o = {a: 1}, arr = [1, 'x', null], fn = function g() {}, k = 0;
function inc() { k = k + 1; return k; }
function wrap(x) { return '<' + x + '>'; }
`

// TestChains: a chain of + gives what one + at a time gives — the numeric
// prefix added, then every operand's string form in order, each taken when
// its operand is evaluated — and charges the same steps. The steps are the
// whole script's (prelude, print call and chain), as the tree walk that
// applied one + at a time counted them.
func TestChains(t *testing.T) {
	for _, tt := range []struct {
		expr, want string
		steps      int64
	}{
		{"'a' + 'b' + 'c'", "abc", 34},
		{"1 + 2 + 'a'", "3a", 34},
		{"'a' + 1 + 2", "a12", 34},
		{"1 + 2 + 3", "6", 34},
		{"1 + (2 + 'a')", "12a", 34},
		{"'a' + (1 + 2)", "a3", 34},
		{"'x' + ('y' + ('z' + 1))", "xyz1", 36},
		{"'' + nan + ' ' + inf + ' ' + ninf", "NaN Infinity -Infinity", 40},
		{"nan + 1", "NaN", 32},
		{"'' + nz", "0", 32},
		{"nz + 0 + ''", "0", 34},
		{"'' + big + ' ' + 1e20", "1e+21 100000000000000000000", 36},
		{"'' + 0.1 + 0.2", "0.10.2", 34},
		{"0.1 + 0.2 + ''", "0.30000000000000004", 34},
		{"'' + -1.5 + -2 + ' ' + 1e-7", "-1.5-2 1e-7", 40},
		{"null + 1 + 'a'", "1a", 34},
		{"null + 'a' + undefined", "nullaundefined", 34},
		{"undefined + 1", "NaN", 32},
		{"true + 1 + 'a'", "2a", 34},
		{"'a' + true + false", "atruefalse", 34},
		{"o + 1", "[object Object]1", 32},
		{"1 + o", "1[object Object]", 32},
		{"arr + '|' + arr", "1,x,|1,x,", 34},
		{"arr + '|' + (arr[0] = 9) + '|' + arr", "1,x,|9|9,x,", 41},
		{"[] + []", "", 32},
		{"'' + ''", "", 32},
		{"fn + ''", "function g() {...}", 32},
		{"'' + print", "function print() {[native]}", 32},
		{"wrap('a' + 1) + wrap(2 + 3)", "<a1><5>", 54},
		{"inc() + '-' + inc() + '-' + inc()", "1-2-3", 65},
		{"json({k: 'a' + 1}) + '!'", `{"k":"a1"}!`, 37},
		{"(function () { var s = ''; for (var i = 0; i < 3; i++) { s = s + i + ','; } return s; })()", "0,1,2,", 81},
	} {
		h, s := run(t, chainPrelude+"print("+tt.expr+");")
		if len(h.prints) != 1 || h.prints[0] != tt.want {
			t.Errorf("%s = %q, want %q", tt.expr, h.prints, tt.want)
		}
		if got := s.StatsSnapshot().Steps; got != tt.steps {
			t.Errorf("%s: %d steps, want %d", tt.expr, got, tt.steps)
		}
	}
}

// TestChainInLoopHitsDeadline: a loop that builds strings forever is still
// cut off by the step budget.
func TestChainInLoopHitsDeadline(t *testing.T) {
	h := newTestHost()
	s, err := New("spin.js", "var i = 0; while (true) { var line = 'n=' + i + ' of ' + 'many'; i++; }", h,
		Config{StepBudget: 10_000, StartupBudgetFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err == nil || !strings.Contains(err.Error(), errBudget.Error()) {
		t.Errorf("Start = %v, want budget error", err)
	}
	if st := s.StatsSnapshot(); st.DeadlineExceeded != 1 || st.Steps != 10_001 {
		t.Errorf("stats = %+v, want 1 deadline after 10001 steps", st)
	}
}
