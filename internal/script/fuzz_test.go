package script

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"pogo/internal/script/scripts"
)

// fuzzBudget is the step budget FuzzScript runs each entry under. Steps
// bound time, not memory: a string or array can double in a few steps, so
// the budget is small enough that doubling from an input-sized start stays
// a few megabytes.
const (
	fuzzBudget = 50
	fuzzMaxSrc = 2048
)

// FuzzScript feeds arbitrary bytes to New as a program. Whatever parses is
// run twice — the body, each subscription's handler on corpusMsg, the
// timers it sets — under a small budget, and must not panic, must finish,
// must fail with errBudget exactly when an entry runs past the budget, and
// must do exactly the same both times: prints, logs, publishes, errors and
// Stats.Steps. Run e.g. `go test -fuzz 'FuzzScript$' -fuzztime 5m
// ./internal/script` for a real session.
func FuzzScript(f *testing.F) {
	for _, name := range scripts.Names() {
		f.Add(scripts.MustSource(name))
	}
	for _, c := range corpus {
		f.Add(c.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > fuzzMaxSrc || writesIndex(src) {
			t.Skip()
		}
		first := fuzzRun(t, src)
		if second := fuzzRun(t, src); first != second {
			t.Fatalf("two runs differ:\n%s\n---\n%s", first, second)
		}
	})
}

// writesIndex reports whether a program may store through an index or set
// an array's length: a dense array grows to the index written, in one step.
func writesIndex(src string) bool {
	toks, err := lex("fuzz.js", src)
	if err != nil {
		return false // New rejects it
	}
	for i := 0; i+1 < len(toks); i++ {
		index := toks[i].kind == tokPunct && toks[i].text == "]"
		if !index && toks[i].text != "length" {
			continue
		}
		switch toks[i+1].text {
		case "=", "+=", "-=", "*=", "/=", "%=", "++", "--":
			return true
		}
	}
	return false
}

// fuzzRun runs src once and renders what it did. The run is on a goroutine
// of its own so that a hang fails the test; failures are reported here.
func fuzzRun(t *testing.T, src string) string {
	type result struct {
		transcript string
		err        error
	}
	done := make(chan result, 1)
	go func() {
		s, err := fuzzTranscript(src)
		done <- result{s, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r.transcript
	case <-time.After(10 * time.Second):
		t.Fatalf("still running after 10s under a %d-step budget", fuzzBudget)
		return ""
	}
}

// fuzzTranscript runs src once. It fails when an entry's budget error does
// not match the steps it took.
func fuzzTranscript(src string) (string, error) {
	h := newTestHost()
	s, err := New("fuzz.js", src, h, Config{StepBudget: fuzzBudget, StartupBudgetFactor: 1})
	if err != nil {
		return "parse: " + err.Error(), nil
	}
	var b strings.Builder
	var fail error
	// entry runs one entry into the script and checks that it failed with
	// errBudget exactly when it took more steps than the budget.
	entry := func(what string, run func() error) {
		before := s.StatsSnapshot()
		err := run()
		after := s.StatsSnapshot()
		if n := len(h.errs); err == nil && n > 0 {
			err, h.errs = h.errs[n-1], h.errs[:n-1]
		}
		steps := after.Steps - before.Steps
		over := steps > fuzzBudget
		if fail == nil && (isBudgetError(err) != over || (after.DeadlineExceeded > before.DeadlineExceeded) != over) {
			fail = fmt.Errorf("%s: %d steps of %d, error %v, deadlines %d → %d", what, steps, fuzzBudget, err,
				before.DeadlineExceeded, after.DeadlineExceeded)
		}
		if err != nil {
			b.WriteString(what + ": " + err.Error() + "\n")
		}
	}
	entry("start", s.Start)
	for i := 0; i < len(h.subs) && i < 8; i++ {
		if sub := h.subs[i]; sub.active {
			entry("deliver", func() error {
				sub.handler(corpusMsg, "peer")
				return nil
			})
		}
	}
	for i := 0; i < len(h.timers) && i < 8; i++ {
		entry("timer", func() error {
			h.timers[i].fn()
			return nil
		})
	}
	renderHost(&b, h)
	renderStats(&b, s)
	return b.String(), fail
}
