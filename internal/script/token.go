// Package script implements PogoScript, a from-scratch interpreter for the
// JavaScript subset Pogo experiments are written in (§4.4 of the paper).
//
// The paper embeds Rhino, a JavaScript runtime for the JVM; this package is
// the equivalent substrate in pure Go: a lexer, a recursive-descent parser,
// and a compiler from the syntax tree to Go closures (compile.go) for the
// language features the paper's scripts use (closures, objects, arrays,
// for/for-in, the usual operators), plus the 11-method host API of Table 1
// (runtime.go). Sandboxing falls out of the design: a script can only touch
// what the host API exposes, and every entry into script code runs under a
// step budget so buggy or malicious code cannot lock up the node (§4.5: the
// default call timeout is 100 ms).
package script

import "fmt"

type tokenKind int

const (
	tokEOF tokenKind = iota + 1
	tokNumber
	tokString
	tokIdent
	tokKeyword
	tokPunct
)

var keywords = map[string]bool{
	"var": true, "function": true, "return": true, "if": true, "else": true,
	"for": true, "while": true, "do": true, "break": true, "continue": true,
	"true": true, "false": true, "null": true, "undefined": true,
	"typeof": true, "in": true, "new": true, "delete": true, "this": true,
	"throw": true, "try": true, "catch": true, "finally": true, "switch": true,
	"case": true, "default": true, "instanceof": true, "void": true, "let": true, "const": true,
}

type token struct {
	kind tokenKind
	text string
	num  float64
	line int
	col  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokNumber:
		return fmt.Sprintf("number %v", t.num)
	case tokString:
		return fmt.Sprintf("string %q", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// SyntaxError reports a lexing or parsing failure with its position.
type SyntaxError struct {
	Script string
	Line   int
	Col    int
	Msg    string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("%s:%d:%d: %s", e.Script, e.Line, e.Col, e.Msg)
}
