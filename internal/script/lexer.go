package script

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

type lexer struct {
	name  string
	src   string
	pos   int
	line  int
	col   int
	toks  []token
	fail  *SyntaxError
	valid bool
}

// lex tokenizes source, returning the token stream or a syntax error.
func lex(name, src string) ([]token, error) {
	l := &lexer{name: name, src: src, line: 1, col: 1}
	l.run()
	if l.fail != nil {
		return nil, l.fail
	}
	return l.toks, nil
}

func (l *lexer) errorf(format string, args ...any) {
	if l.fail == nil {
		l.fail = &SyntaxError{Script: l.name, Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
	}
}

func (l *lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) peek2() byte {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) emit(kind tokenKind, text string, num float64, line, col int) {
	l.toks = append(l.toks, token{kind: kind, text: text, num: num, line: line, col: col})
}

// punctuators, longest first so maximal munch works.
var puncts = []string{
	"===", "!==", ">>>", "&&=", "||=",
	"==", "!=", "<=", ">=", "&&", "||", "++", "--",
	"+=", "-=", "*=", "/=", "%=", "=>",
	"{", "}", "(", ")", "[", "]", ";", ",", ".", "?", ":",
	"+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|",
}

func (l *lexer) run() {
	for l.pos < len(l.src) && l.fail == nil {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			l.advance()
			l.advance()
			closed := false
			for l.pos < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				l.errorf("unterminated block comment")
			}
		case c >= '0' && c <= '9', c == '.' && l.peek2() >= '0' && l.peek2() <= '9':
			l.lexNumber()
		case c == '\'' || c == '"':
			l.lexString(c)
		case isIdentStart(l.rune()):
			l.lexIdent()
		default:
			l.lexPunct()
		}
	}
	l.emit(tokEOF, "", 0, l.line, l.col)
}

func (l *lexer) lexNumber() {
	line, col := l.line, l.col
	start := l.pos
	// Hex literals.
	if l.peek() == '0' && (l.peek2() == 'x' || l.peek2() == 'X') {
		l.advance()
		l.advance()
		for isHex(l.peek()) {
			l.advance()
		}
		n, err := strconv.ParseUint(l.src[start+2:l.pos], 16, 64)
		if err != nil {
			l.errorf("bad hex literal %q", l.src[start:l.pos])
			return
		}
		l.emit(tokNumber, l.src[start:l.pos], float64(n), line, col)
		return
	}
	for isDigit(l.peek()) {
		l.advance()
	}
	if l.peek() == '.' {
		l.advance()
		for isDigit(l.peek()) {
			l.advance()
		}
	}
	if l.peek() == 'e' || l.peek() == 'E' {
		l.advance()
		if l.peek() == '+' || l.peek() == '-' {
			l.advance()
		}
		for isDigit(l.peek()) {
			l.advance()
		}
	}
	text := l.src[start:l.pos]
	n, err := strconv.ParseFloat(text, 64)
	if err != nil {
		l.errorf("bad number literal %q", text)
		return
	}
	l.emit(tokNumber, text, n, line, col)
}

func (l *lexer) lexString(quote byte) {
	line, col := l.line, l.col
	l.advance() // opening quote
	var sb strings.Builder
	for {
		if l.pos >= len(l.src) {
			l.errorf("unterminated string")
			return
		}
		c := l.advance()
		if c == quote {
			break
		}
		if c == '\n' {
			l.errorf("newline in string")
			return
		}
		if c != '\\' {
			sb.WriteByte(c)
			continue
		}
		if l.pos >= len(l.src) {
			l.errorf("unterminated escape")
			return
		}
		e := l.advance()
		switch e {
		case 'n':
			sb.WriteByte('\n')
		case 't':
			sb.WriteByte('\t')
		case 'r':
			sb.WriteByte('\r')
		case '\\', '\'', '"':
			sb.WriteByte(e)
		case '0':
			sb.WriteByte(0)
		case 'u':
			if l.pos+4 > len(l.src) {
				l.errorf("bad unicode escape")
				return
			}
			hex := l.src[l.pos : l.pos+4]
			n, err := strconv.ParseUint(hex, 16, 32)
			if err != nil {
				l.errorf("bad unicode escape \\u%s", hex)
				return
			}
			for i := 0; i < 4; i++ {
				l.advance()
			}
			sb.WriteRune(rune(n))
		default:
			sb.WriteByte(e)
		}
	}
	l.emit(tokString, sb.String(), 0, line, col)
}

func (l *lexer) lexIdent() {
	line, col := l.line, l.col
	start := l.pos
	for l.pos < len(l.src) {
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if !isIdentPart(r) {
			break
		}
		for i := 0; i < size; i++ {
			l.advance()
		}
	}
	text := l.src[start:l.pos]
	kind := tokIdent
	if keywords[text] {
		kind = tokKeyword
	}
	l.emit(kind, text, 0, line, col)
}

func (l *lexer) lexPunct() {
	line, col := l.line, l.col
	rest := l.src[l.pos:]
	for _, p := range puncts {
		if strings.HasPrefix(rest, p) {
			for i := 0; i < len(p); i++ {
				l.advance()
			}
			l.emit(tokPunct, p, 0, line, col)
			return
		}
	}
	l.errorf("unexpected character %q", string(l.peek()))
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHex(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// rune returns the character at the current position: a byte beyond ASCII
// starts a multi-byte one, which is not the Latin-1 letter the byte is.
func (l *lexer) rune() rune {
	r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
	return r
}

func isIdentStart(r rune) bool {
	return r == '_' || r == '$' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return isIdentStart(r) || unicode.IsDigit(r)
}
