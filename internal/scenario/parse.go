package scenario

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"pogo/internal/obs"
)

// command is one parsed script line.
type command struct {
	File  string
	Line  int      // 1-based line within the archive file
	Neg   bool     // `! cmd`: the command must fail
	Conds []string // `[cond]` prefixes; all must hold or the line is skipped
	Name  string
	Args  []string
	Raw   string // the line as written, for transcript echo
}

// errf formats a script error carrying its file:line position — every
// parse- and run-time failure in this package goes through it, so error
// text is always attributable to the scenario line that caused it.
func (c command) errf(format string, args ...any) error {
	return fmt.Errorf("%s:%d: %s: %s", c.File, c.Line, c.Name, fmt.Sprintf(format, args...))
}

func parseErrf(file string, line int, format string, args ...any) error {
	return fmt.Errorf("%s:%d: %s", file, line, fmt.Sprintf(format, args...))
}

// parseScript parses the comment section of a scenario archive into its
// command list. Blank lines and lines whose first token starts with `#` are
// skipped. Errors carry file:line.
func parseScript(file string, comment []byte) ([]command, error) {
	var cmds []command
	for i, raw := range strings.Split(string(comment), "\n") {
		lineNo := i + 1
		line := strings.TrimSuffix(raw, "\r")
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		toks, err := tokenize(trimmed)
		if err != nil {
			return nil, parseErrf(file, lineNo, "%v", err)
		}
		if len(toks) == 0 {
			continue
		}
		cmd := command{File: file, Line: lineNo, Raw: trimmed}
		// Condition prefixes, then optional negation, then the name.
		for len(toks) > 0 && strings.HasPrefix(toks[0], "[") {
			t := toks[0]
			if !strings.HasSuffix(t, "]") || len(t) < 3 {
				return nil, parseErrf(file, lineNo, "malformed condition %q (want [cond])", t)
			}
			cmd.Conds = append(cmd.Conds, t[1:len(t)-1])
			toks = toks[1:]
		}
		if len(toks) > 0 && toks[0] == "!" {
			cmd.Neg = true
			toks = toks[1:]
		}
		if len(toks) == 0 {
			return nil, parseErrf(file, lineNo, "conditions and negation but no command")
		}
		if toks[0] == "" {
			return nil, parseErrf(file, lineNo, "empty command name (quoted empty token)")
		}
		cmd.Name = toks[0]
		cmd.Args = toks[1:]
		cmds = append(cmds, cmd)
	}
	return cmds, nil
}

// tokenize splits a line on spaces, honoring single-quoted tokens
// (testscript style: 'two words'; a doubled ” inside quotes is a literal
// quote).
func tokenize(line string) ([]string, error) {
	var toks []string
	var cur strings.Builder
	inTok, quoted := false, false
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case quoted:
			if c == '\'' {
				if i+1 < len(line) && line[i+1] == '\'' {
					cur.WriteByte('\'')
					i++
					continue
				}
				quoted = false
				continue
			}
			cur.WriteByte(c)
		case c == ' ' || c == '\t':
			if inTok {
				toks = append(toks, cur.String())
				cur.Reset()
				inTok = false
			}
		case c == '\'':
			quoted = true
			inTok = true
		default:
			cur.WriteByte(c)
			inTok = true
		}
	}
	if quoted {
		return nil, fmt.Errorf("unterminated ' quote")
	}
	if inTok {
		toks = append(toks, cur.String())
	}
	return toks, nil
}

// kvArgs splits a command's arguments into leading positional arguments and
// key=value options, validating every key against allowed. Positional
// arguments must precede options.
func kvArgs(c command, positional int, allowed ...string) ([]string, map[string]string, error) {
	if len(c.Args) < positional {
		return nil, nil, c.errf("want %d positional argument(s), got %d", positional, len(c.Args))
	}
	pos := c.Args[:positional]
	kv := make(map[string]string)
	for _, a := range c.Args[positional:] {
		eq := strings.IndexByte(a, '=')
		if eq <= 0 {
			return nil, nil, c.errf("argument %q is not key=value", a)
		}
		k, v := a[:eq], a[eq+1:]
		ok := false
		for _, want := range allowed {
			if k == want {
				ok = true
				break
			}
		}
		if !ok {
			return nil, nil, c.errf("unknown option %q (allowed: %s)", k, strings.Join(allowed, ", "))
		}
		if _, dup := kv[k]; dup {
			return nil, nil, c.errf("duplicate option %q", k)
		}
		kv[k] = v
	}
	return pos, kv, nil
}

// kvDuration parses an optional duration option ("10m", "1h30m"); def when
// absent.
func kvDuration(c command, kv map[string]string, key string, def time.Duration) (time.Duration, error) {
	v, ok := kv[key]
	if !ok {
		return def, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, c.errf("bad duration %s=%q: %v", key, v, err)
	}
	if d < 0 {
		return 0, c.errf("negative duration %s=%q", key, v)
	}
	return d, nil
}

func kvFloat(c command, kv map[string]string, key string, def float64) (float64, error) {
	v, ok := kv[key]
	if !ok {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, c.errf("bad number %s=%q", key, v)
	}
	return f, nil
}

func kvInt(c command, kv map[string]string, key string, def int) (int, error) {
	v, ok := kv[key]
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, c.errf("bad integer %s=%q", key, v)
	}
	return n, nil
}

// parseSelector parses a metric selector — name or name{k=v,k2=v2} — into
// its family name and label set.
func parseSelector(s string) (string, []obs.Label, error) {
	open := strings.IndexByte(s, '{')
	if open < 0 {
		if strings.ContainsAny(s, "}=,") {
			return "", nil, fmt.Errorf("malformed selector %q", s)
		}
		return s, nil, nil
	}
	if !strings.HasSuffix(s, "}") {
		return "", nil, fmt.Errorf("selector %q: missing closing }", s)
	}
	name := s[:open]
	if name == "" {
		return "", nil, fmt.Errorf("selector %q: empty metric name", s)
	}
	var labels []obs.Label
	body := s[open+1 : len(s)-1]
	if body == "" {
		return name, nil, nil
	}
	for _, part := range strings.Split(body, ",") {
		eq := strings.IndexByte(part, '=')
		if eq <= 0 {
			return "", nil, fmt.Errorf("selector %q: label %q is not key=value", s, part)
		}
		labels = append(labels, obs.L(part[:eq], part[eq+1:]))
	}
	return name, labels, nil
}

// cmpOp evaluates `have op want` for the comparison operators the expect
// commands accept.
func cmpOp(op string, have, want float64) (bool, error) {
	switch op {
	case "==":
		return have == want, nil
	case "!=":
		return have != want, nil
	case ">=":
		return have >= want, nil
	case "<=":
		return have <= want, nil
	case ">":
		return have > want, nil
	case "<":
		return have < want, nil
	}
	return false, fmt.Errorf("unknown operator %q (want == != >= <= > <)", op)
}

// formatNum renders a comparison operand without float noise: integers stay
// integers.
func formatNum(f float64) string {
	if f == float64(int64(f)) {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}
