// Package scenario is the txtar-scripted testbed layer: declarative,
// diffable scenario files that drive the simulated Pogo world — chaos
// testbeds, sharded fleets, paper-table experiments, and scripted
// deployments — entirely on the virtual clock, so a seed yields
// byte-identical transcripts on every run.
//
// A scenario is one txtar archive. The comment section is the script: one
// command per line (`world_up 50 1 seed=1`, `advance 10m`,
// `expect_log_sha256 <hex>`), with `#` comments, `! cmd` expected-failure
// negation, and `[cond]` prefixes (`[short] skip`, `[shards:2] ...`). The
// file sections hold goldens for `match_file` and PogoScript sources for
// `deploy`. See DESIGN.md "Scenario DSL" for the command set and the
// determinism contract.
package scenario

import (
	"bytes"
	"strings"
)

// File is one named section of a scenario archive.
type File struct {
	Name string
	Data []byte
}

// Archive is a parsed txtar file: a comment (the scenario script) followed
// by named file sections. The format is the txtar format of
// golang.org/x/tools/txtar, reimplemented here to keep the module
// dependency-free.
type Archive struct {
	Comment []byte
	Files   []File
}

// ParseTxtar parses data as a txtar archive. The format cannot fail: any
// input is a valid archive (possibly all comment), so no error is returned.
// Lost trailing newlines are restored, as in the reference implementation.
func ParseTxtar(data []byte) *Archive {
	a := &Archive{}
	var name string
	a.Comment, name, data = findMarker(data)
	for name != "" {
		f := File{Name: name}
		f.Data, name, data = findMarker(data)
		a.Files = append(a.Files, f)
	}
	return a
}

// file returns the named section's contents and whether it exists.
func (a *Archive) file(name string) ([]byte, bool) {
	for _, f := range a.Files {
		if f.Name == name {
			return f.Data, true
		}
	}
	return nil, false
}

// setFile replaces (or appends) the named section — the `-update` golden
// regeneration path.
func (a *Archive) setFile(name string, data []byte) {
	for i := range a.Files {
		if a.Files[i].Name == name {
			a.Files[i].Data = data
			return
		}
	}
	a.Files = append(a.Files, File{Name: name, Data: data})
}

// formatTxtar serializes the archive back to txtar bytes. Parse∘Format is
// the identity on Format's output (fuzzed in FuzzScenarioParse).
func formatTxtar(a *Archive) []byte {
	var buf bytes.Buffer
	buf.Write(fixNL(a.Comment))
	for _, f := range a.Files {
		buf.WriteString("-- " + f.Name + " --\n")
		buf.Write(fixNL(f.Data))
	}
	return buf.Bytes()
}

// findMarker scans data for the next `-- name --` marker line, returning the
// bytes before it (newline-fixed), the marker's name ("" when no marker
// remains), and the bytes after the marker line.
func findMarker(data []byte) (before []byte, name string, after []byte) {
	rest := data
	consumed := 0
	for len(rest) > 0 {
		line := rest
		nl := bytes.IndexByte(rest, '\n')
		lineLen := len(rest)
		if nl >= 0 {
			line = rest[:nl]
			lineLen = nl + 1
		}
		if n, ok := isMarker(line); ok {
			return fixNL(data[:consumed]), n, rest[lineLen:]
		}
		consumed += lineLen
		rest = rest[lineLen:]
	}
	return fixNL(data), "", nil
}

// isMarker reports whether line is a txtar section marker and extracts its
// trimmed name. A marker is `-- name --` with a non-empty name.
func isMarker(line []byte) (string, bool) {
	line = bytes.TrimSuffix(line, []byte("\r"))
	// The length guard keeps the overlapping prefix/suffix checks honest:
	// `-- --` must not pass as a marker with a negative-width name.
	if len(line) < len("--  --") ||
		!bytes.HasPrefix(line, []byte("-- ")) || !bytes.HasSuffix(line, []byte(" --")) {
		return "", false
	}
	name := strings.TrimSpace(string(line[3 : len(line)-3]))
	if name == "" {
		return "", false
	}
	return name, true
}

// fixNL guarantees content ends with a newline (txtar sections always do).
func fixNL(data []byte) []byte {
	if len(data) == 0 || data[len(data)-1] == '\n' {
		return data
	}
	out := make([]byte, len(data)+1)
	copy(out, data)
	out[len(data)] = '\n'
	return out
}
