package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzScenarioParse hammers the archive and script parsers: no input may
// panic, every parse error must carry a file:line position, and
// Parse∘Format must be the identity on Format's output.
func FuzzScenarioParse(f *testing.F) {
	files, _ := filepath.Glob(filepath.Join("testdata", "scenarios", "*.txtar"))
	for _, file := range files {
		if data, err := os.ReadFile(file); err == nil {
			f.Add(data)
		}
	}
	f.Add([]byte("world_up 50 1 seed=1\nrun\n-- golden.txt --\nx\n"))
	f.Add([]byte("[short] [!race] ! expect_stat lost == 0\n"))
	f.Add([]byte("skip 'two words' it''s\n"))
	f.Add([]byte("'unterminated\n-- a --\n-- a --\ndup section\n"))
	f.Add([]byte("--  --\nnot a marker: empty name\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		arch := ParseTxtar(data) // must never panic or fail
		out := formatTxtar(arch)
		if again := formatTxtar(ParseTxtar(out)); !bytes.Equal(again, out) {
			t.Fatalf("Parse/Format round trip not stable:\n%q\nvs\n%q", out, again)
		}

		cmds, err := parseScript("fuzz.txtar", arch.Comment)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "fuzz.txtar:") {
				t.Fatalf("parse error lost its file:line position: %v", err)
			}
			return
		}
		for _, c := range cmds {
			if c.Name == "" {
				t.Fatalf("parsed command with empty name at line %d", c.Line)
			}
			if c.Line < 1 {
				t.Fatalf("command %q has line %d", c.Name, c.Line)
			}
			if e := c.errf("boom"); !strings.HasPrefix(e.Error(), "fuzz.txtar:") {
				t.Fatalf("Errf lost the position: %v", e)
			}
		}
	})
}
