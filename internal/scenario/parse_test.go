package scenario

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"pogo/internal/obs"
)

func TestParseScript(t *testing.T) {
	tests := []struct {
		name   string
		src    string
		want   []command // Raw omitted; filled from src line in the check
		errSub string    // non-empty: parse must fail containing this
	}{
		{
			name: "plain command with args",
			src:  "world_up 50 1 seed=1\n",
			want: []command{{Line: 1, Name: "world_up", Args: []string{"50", "1", "seed=1"}}},
		},
		{
			name: "comments and blanks are skipped",
			src:  "# a comment\n\n  \nrun\n",
			want: []command{{Line: 4, Name: "run"}},
		},
		{
			name: "condition prefixes stack",
			src:  "[short] [!race] skip too slow\n",
			want: []command{{Line: 1, Conds: []string{"short", "!race"}, Name: "skip", Args: []string{"too", "slow"}}},
		},
		{
			name: "negation after conditions",
			src:  "[chaos] ! kill collector\n",
			want: []command{{Line: 1, Conds: []string{"chaos"}, Neg: true, Name: "kill", Args: []string{"collector"}}},
		},
		{
			name: "quoted tokens keep spaces and doubled quotes",
			src:  "skip 'two words' 'it''s'\n",
			want: []command{{Line: 1, Name: "skip", Args: []string{"two words", "it's"}}},
		},
		{
			name:   "malformed condition",
			src:    "[short run\n",
			errSub: "f.txtar:1: malformed condition \"[short\"",
		},
		{
			name:   "conditions but no command",
			src:    "[short] !\n",
			errSub: "f.txtar:1: conditions and negation but no command",
		},
		{
			name:   "unterminated quote",
			src:    "run\nskip 'oops\n",
			errSub: "f.txtar:2: unterminated ' quote",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cmds, err := parseScript("f.txtar", []byte(tc.src))
			if tc.errSub != "" {
				if err == nil || !strings.Contains(err.Error(), tc.errSub) {
					t.Fatalf("err = %v, want containing %q", err, tc.errSub)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for i := range cmds {
				cmds[i].File, cmds[i].Raw = "", "" // positional fields under test only
				if len(cmds[i].Args) == 0 {
					cmds[i].Args = nil
				}
			}
			if !reflect.DeepEqual(cmds, tc.want) {
				t.Errorf("parsed %#v\nwant   %#v", cmds, tc.want)
			}
		})
	}
}

// Unknown commands parse fine (the DSL is open at parse time) and fail at
// dispatch with a file:line error.
func TestUnknownCommandFailsAtDispatch(t *testing.T) {
	_, err := (&Runner{}).run("u.txtar", []byte("frobnicate now\n"))
	if err == nil || err.Error() != "u.txtar:1: frobnicate: unknown command" {
		t.Fatalf("err = %v", err)
	}
}

// world_up validates its option keys: a fleet is partitioned by shards= and
// nothing else.
func TestWorldUpRejectsUnknownOption(t *testing.T) {
	_, err := (&Runner{}).run("u.txtar", []byte("world_up 8 2 shards=2 procs=2\n"))
	if err == nil || !strings.Contains(err.Error(), `unknown option "procs"`) {
		t.Fatalf("err = %v", err)
	}
}

func TestKVArgs(t *testing.T) {
	mk := func(args ...string) command {
		return command{File: "f", Line: 1, Name: "cmd", Args: args}
	}
	t.Run("positional then options", func(t *testing.T) {
		pos, kv, err := kvArgs(mk("a", "b", "seed=4", "delay=50ms"), 2, "seed", "delay")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pos, []string{"a", "b"}) {
			t.Errorf("pos = %v", pos)
		}
		if kv["seed"] != "4" || kv["delay"] != "50ms" {
			t.Errorf("kv = %v", kv)
		}
	})
	for _, tc := range []struct {
		name   string
		c      command
		n      int
		errSub string
	}{
		{"missing positional", mk("a"), 2, "want 2 positional argument(s), got 1"},
		{"bare word where option expected", mk("a", "fast"), 1, `argument "fast" is not key=value`},
		{"unknown option", mk("bogus=1"), 0, `unknown option "bogus"`},
		{"duplicate option", mk("seed=1", "seed=2"), 0, `duplicate option "seed"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := kvArgs(tc.c, tc.n, "seed", "delay")
			if err == nil || !strings.Contains(err.Error(), tc.errSub) {
				t.Errorf("err = %v, want containing %q", err, tc.errSub)
			}
		})
	}
}

func TestKVTypedOptions(t *testing.T) {
	c := command{File: "f", Line: 3, Name: "cmd"}
	if d, err := kvDuration(c, map[string]string{"w": "1h30m"}, "w", 0); err != nil || d != 90*time.Minute {
		t.Errorf("1h30m -> %v, %v", d, err)
	}
	if d, err := kvDuration(c, nil, "w", 10*time.Minute); err != nil || d != 10*time.Minute {
		t.Errorf("default -> %v, %v", d, err)
	}
	if _, err := kvDuration(c, map[string]string{"w": "-5s"}, "w", 0); err == nil {
		t.Error("negative duration accepted")
	}
	if _, err := kvDuration(c, map[string]string{"w": "10 minutes"}, "w", 0); err == nil {
		t.Error("malformed duration accepted")
	}
	if f, err := kvFloat(c, map[string]string{"d": "0.25"}, "d", 0); err != nil || f != 0.25 {
		t.Errorf("0.25 -> %v, %v", f, err)
	}
	if _, err := kvFloat(c, map[string]string{"d": "x"}, "d", 0); err == nil {
		t.Error("malformed float accepted")
	}
	if n, err := kvInt(c, map[string]string{"n": "42"}, "n", 0); err != nil || n != 42 {
		t.Errorf("42 -> %v, %v", n, err)
	}
	if _, err := kvInt(c, map[string]string{"n": "4.2"}, "n", 0); err == nil {
		t.Error("non-integer accepted")
	}
}

func TestParseSelector(t *testing.T) {
	tests := []struct {
		sel    string
		name   string
		labels []obs.Label
		bad    bool
	}{
		{sel: "transport_retries_total", name: "transport_retries_total"},
		{sel: "m{}", name: "m"},
		{sel: "m{a=1}", name: "m", labels: []obs.Label{obs.L("a", "1")}},
		{
			sel:    "pogo_entity_uplink_bytes_total{device=devA,script=scan.js}",
			name:   "pogo_entity_uplink_bytes_total",
			labels: []obs.Label{obs.L("device", "devA"), obs.L("script", "scan.js")},
		},
		{sel: "m{a=1", bad: true},  // missing }
		{sel: "{a=1}", bad: true},  // empty name
		{sel: "m{a}", bad: true},   // label not k=v
		{sel: "m}a=1{", bad: true}, // stray braces
		{sel: "name=value", bad: true},
	}
	for _, tc := range tests {
		name, labels, err := parseSelector(tc.sel)
		if tc.bad {
			if err == nil {
				t.Errorf("parseSelector(%q) accepted", tc.sel)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseSelector(%q): %v", tc.sel, err)
			continue
		}
		if name != tc.name || !reflect.DeepEqual(labels, tc.labels) {
			t.Errorf("parseSelector(%q) = %q %v, want %q %v", tc.sel, name, labels, tc.name, tc.labels)
		}
	}
}

func TestCmpOp(t *testing.T) {
	tests := []struct {
		op         string
		have, want float64
		ok         bool
	}{
		{"==", 3, 3, true}, {"==", 3, 4, false},
		{"!=", 3, 4, true}, {"!=", 3, 3, false},
		{">=", 3, 3, true}, {">=", 2, 3, false},
		{"<=", 3, 3, true}, {"<=", 4, 3, false},
		{">", 4, 3, true}, {">", 3, 3, false},
		{"<", 2, 3, true}, {"<", 3, 3, false},
	}
	for _, tc := range tests {
		got, err := cmpOp(tc.op, tc.have, tc.want)
		if err != nil || got != tc.ok {
			t.Errorf("cmpOp(%q, %v, %v) = %v, %v; want %v", tc.op, tc.have, tc.want, got, err, tc.ok)
		}
	}
	if _, err := cmpOp("=", 1, 1); err == nil {
		t.Error(`cmpOp("=") accepted`)
	}
}

func TestFormatNum(t *testing.T) {
	if s := formatNum(1150); s != "1150" {
		t.Errorf("formatNum(1150) = %q", s)
	}
	if s := formatNum(0.05); s != "0.05" {
		t.Errorf("formatNum(0.05) = %q", s)
	}
}

func TestTxtarRoundTrip(t *testing.T) {
	src := "run\n-- a.txt --\nhello\n-- b.txt --\nno trailing newline"
	arch := ParseTxtar([]byte(src))
	if string(arch.Comment) != "run\n" {
		t.Errorf("comment = %q", arch.Comment)
	}
	if data, ok := arch.file("b.txt"); !ok || string(data) != "no trailing newline\n" {
		t.Errorf("b.txt = %q, %v (want newline restored)", data, ok)
	}
	arch.setFile("a.txt", []byte("replaced\n"))
	arch.setFile("c.txt", []byte("appended\n"))
	out := formatTxtar(arch)
	want := "run\n-- a.txt --\nreplaced\n-- b.txt --\nno trailing newline\n-- c.txt --\nappended\n"
	if string(out) != want {
		t.Errorf("FormatTxtar = %q\nwant         %q", out, want)
	}
	if again := formatTxtar(ParseTxtar(out)); string(again) != want {
		t.Errorf("Parse/Format round trip drifted: %q", again)
	}
}
