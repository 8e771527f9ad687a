package script

import "fmt"

// maxParseDepth bounds expression/statement nesting so pathological input
// (thousands of nested parentheses) fails cleanly instead of overflowing
// the Go stack.
const maxParseDepth = 500

type parser struct {
	name  string
	toks  []token
	pos   int
	depth int
	fn    *funcLit // the function whose body is being parsed; nil at top level
}

// named notes an identifier in the enclosing function's body.
func (p *parser) named(name string) {
	if p.fn != nil && name == "arguments" {
		p.fn.usesArgs = true
	}
}

// local counts a name the enclosing function's frame may come to hold.
func (p *parser) local(name string) {
	if p.fn != nil {
		p.fn.nlocals++
	}
	p.named(name)
}

// enter guards recursive descent; every recursive production calls it.
func (p *parser) enter() error {
	p.depth++
	if p.depth > maxParseDepth {
		return p.errorf("input nested too deeply (limit %d)", maxParseDepth)
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

// parse builds a program AST from source.
func parse(name, src string) (*program, error) {
	toks, err := lex(name, src)
	if err != nil {
		return nil, err
	}
	p := &parser{name: name, toks: toks}
	prog := &program{base: p.here()}
	for !p.atEOF() {
		stmt, err := p.statement()
		if err != nil {
			return nil, err
		}
		prog.body = append(prog.body, stmt)
		if fd, ok := stmt.(*funcDecl); ok {
			prog.funcs = append(prog.funcs, fd)
		}
	}
	return prog, nil
}

func (p *parser) here() base {
	t := p.toks[p.pos]
	return base{line: t.line, col: t.col}
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) atEOF() bool { return p.cur().kind == tokEOF }

func (p *parser) errorf(format string, args ...any) error {
	t := p.cur()
	return &SyntaxError{Script: p.name, Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

// is reports whether the current token is the given punct or keyword text.
func (p *parser) is(text string) bool {
	t := p.cur()
	return (t.kind == tokPunct || t.kind == tokKeyword) && t.text == text
}

// accept consumes the token if it matches.
func (p *parser) accept(text string) bool {
	if p.is(text) {
		p.advance()
		return true
	}
	return false
}

// expect consumes the token or fails.
func (p *parser) expect(text string) error {
	if !p.accept(text) {
		return p.errorf("expected %q, found %s", text, p.cur())
	}
	return nil
}

// semicolon consumes an optional statement terminator.
func (p *parser) semicolon() {
	p.accept(";")
}

// ---- statements ----

func (p *parser) statement() (node, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	switch {
	case p.is("var") || p.is("let") || p.is("const"):
		d, err := p.varDecl()
		if err != nil {
			return nil, err
		}
		p.semicolon()
		return d, nil
	case p.is("function"):
		return p.funcDecl()
	case p.is("if"):
		return p.ifStmt()
	case p.is("while"):
		return p.whileStmt()
	case p.is("do"):
		return p.doWhileStmt()
	case p.is("for"):
		return p.forStmt()
	case p.is("return"):
		b := p.here()
		p.advance()
		var val node
		if !p.is(";") && !p.is("}") && !p.atEOF() {
			v, err := p.expression()
			if err != nil {
				return nil, err
			}
			val = v
		}
		p.semicolon()
		return &returnStmt{base: b, value: val}, nil
	case p.is("break"):
		b := p.here()
		p.advance()
		p.semicolon()
		return &breakStmt{base: b}, nil
	case p.is("continue"):
		b := p.here()
		p.advance()
		p.semicolon()
		return &continueStmt{base: b}, nil
	case p.is("throw"):
		b := p.here()
		p.advance()
		v, err := p.expression()
		if err != nil {
			return nil, err
		}
		p.semicolon()
		return &throwStmt{base: b, value: v}, nil
	case p.is("switch"):
		return p.switchStmt()
	case p.is("try"):
		return p.tryStmt()
	case p.is("{"):
		return p.block()
	case p.is(";"):
		b := p.here()
		p.advance()
		return &blockStmt{base: b}, nil
	default:
		b := p.here()
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		p.semicolon()
		return &exprStmt{base: b, expr: e}, nil
	}
}

func (p *parser) varDecl() (*varDecl, error) {
	b := p.here()
	p.advance() // var/let/const
	d := &varDecl{base: b}
	for {
		if p.cur().kind != tokIdent {
			return nil, p.errorf("expected variable name, found %s", p.cur())
		}
		d.names = append(d.names, p.advance().text)
		p.local(d.names[len(d.names)-1])
		if p.accept("=") {
			init, err := p.assignment()
			if err != nil {
				return nil, err
			}
			d.inits = append(d.inits, init)
		} else {
			d.inits = append(d.inits, nil)
		}
		if !p.accept(",") {
			break
		}
	}
	return d, nil
}

func (p *parser) funcDecl() (node, error) {
	b := p.here()
	p.advance() // function
	if p.cur().kind != tokIdent {
		return nil, p.errorf("expected function name, found %s", p.cur())
	}
	name := p.advance().text
	p.local(name)
	fn, err := p.funcRest(b, name)
	if err != nil {
		return nil, err
	}
	return &funcDecl{base: b, name: name, fn: fn}, nil
}

// funcRest parses "(params) { body }".
func (p *parser) funcRest(b base, name string) (*funcLit, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var params []string
	for !p.is(")") {
		if p.cur().kind != tokIdent {
			return nil, p.errorf("expected parameter name, found %s", p.cur())
		}
		params = append(params, p.advance().text)
		if !p.accept(",") {
			break
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	fn := &funcLit{base: b, name: name, params: params, nlocals: len(params)}
	outer := p.fn
	p.fn = fn
	body, err := p.block()
	p.fn = outer
	fn.body = body
	if err != nil {
		return nil, err
	}
	if fn.usesArgs {
		fn.nlocals++
	}
	return fn, nil
}

func (p *parser) block() (*blockStmt, error) {
	b := p.here()
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	blk := &blockStmt{base: b}
	for !p.is("}") {
		if p.atEOF() {
			return nil, p.errorf("unterminated block")
		}
		stmt, err := p.statement()
		if err != nil {
			return nil, err
		}
		blk.body = append(blk.body, stmt)
		if fd, ok := stmt.(*funcDecl); ok {
			blk.funcs = append(blk.funcs, fd)
		}
	}
	p.advance() // }
	return blk, nil
}

func (p *parser) ifStmt() (node, error) {
	b := p.here()
	p.advance() // if
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.expression()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	then, err := p.statement()
	if err != nil {
		return nil, err
	}
	var alt node
	if p.accept("else") {
		alt, err = p.statement()
		if err != nil {
			return nil, err
		}
	}
	return &ifStmt{base: b, cond: cond, then: then, alt: alt}, nil
}

func (p *parser) whileStmt() (node, error) {
	b := p.here()
	p.advance() // while
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.expression()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	return &whileStmt{base: b, cond: cond, body: body}, nil
}

func (p *parser) doWhileStmt() (node, error) {
	b := p.here()
	p.advance() // do
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	if err := p.expect("while"); err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.expression()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	p.semicolon()
	return &whileStmt{base: b, cond: cond, body: body, post: true}, nil
}

func (p *parser) forStmt() (node, error) {
	b := p.here()
	p.advance() // for
	if err := p.expect("("); err != nil {
		return nil, err
	}

	// for (var k in obj) / for (k in obj)
	if p.is("var") || p.is("let") || p.is("const") {
		save := p.pos
		p.advance()
		if p.cur().kind == tokIdent && p.toks[p.pos+1].kind == tokKeyword && p.toks[p.pos+1].text == "in" {
			name := p.advance().text
			p.local(name)
			p.advance() // in
			obj, err := p.assignment()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			body, err := p.statement()
			if err != nil {
				return nil, err
			}
			return &forInStmt{base: b, varName: name, declare: true, obj: obj, body: body}, nil
		}
		p.pos = save
	} else if p.cur().kind == tokIdent && p.toks[p.pos+1].kind == tokKeyword && p.toks[p.pos+1].text == "in" {
		name := p.advance().text
		p.named(name)
		p.advance() // in
		obj, err := p.assignment()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.statement()
		if err != nil {
			return nil, err
		}
		return &forInStmt{base: b, varName: name, declare: false, obj: obj, body: body}, nil
	}

	// classic for(init; cond; step)
	var init, cond, step node
	var err error
	if !p.is(";") {
		if p.is("var") || p.is("let") || p.is("const") {
			init, err = p.varDecl()
		} else {
			init, err = p.expression()
		}
		if err != nil {
			return nil, err
		}
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	if !p.is(";") {
		cond, err = p.expression()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	if !p.is(")") {
		step, err = p.expression()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	return &forStmt{base: b, init: init, cond: cond, step: step, body: body}, nil
}

func (p *parser) switchStmt() (node, error) {
	b := p.here()
	p.advance() // switch
	if err := p.expect("("); err != nil {
		return nil, err
	}
	disc, err := p.expression()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	st := &switchStmt{base: b, disc: disc}
	sawDefault := false
	for !p.is("}") {
		var clause switchCase
		switch {
		case p.accept("case"):
			test, err := p.expression()
			if err != nil {
				return nil, err
			}
			clause.test = test
		case p.accept("default"):
			if sawDefault {
				return nil, p.errorf("duplicate default clause")
			}
			sawDefault = true
		default:
			return nil, p.errorf("expected case or default, found %s", p.cur())
		}
		if err := p.expect(":"); err != nil {
			return nil, err
		}
		for !p.is("case") && !p.is("default") && !p.is("}") {
			if p.atEOF() {
				return nil, p.errorf("unterminated switch")
			}
			stmt, err := p.statement()
			if err != nil {
				return nil, err
			}
			clause.body = append(clause.body, stmt)
		}
		st.cases = append(st.cases, clause)
	}
	p.advance() // }
	return st, nil
}

func (p *parser) tryStmt() (node, error) {
	b := p.here()
	p.advance() // try
	blk, err := p.block()
	if err != nil {
		return nil, err
	}
	st := &tryStmt{base: b, block: blk}
	if p.accept("catch") {
		if err := p.expect("("); err != nil {
			return nil, err
		}
		if p.cur().kind != tokIdent {
			return nil, p.errorf("expected catch variable, found %s", p.cur())
		}
		st.catchVar = p.advance().text
		p.local(st.catchVar)
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		st.catchBody, err = p.block()
		if err != nil {
			return nil, err
		}
	}
	if p.accept("finally") {
		st.finally, err = p.block()
		if err != nil {
			return nil, err
		}
	}
	if st.catchBody == nil && st.finally == nil {
		return nil, p.errorf("try without catch or finally")
	}
	return st, nil
}

// ---- expressions (precedence climbing) ----

func (p *parser) expression() (node, error) {
	// Comma operator: evaluate left, yield right. Used in for-steps.
	e, err := p.assignment()
	if err != nil {
		return nil, err
	}
	for p.is(",") {
		b := p.here()
		p.advance()
		right, err := p.assignment()
		if err != nil {
			return nil, err
		}
		e = &binary{base: b, op: ",", left: e, right: right}
	}
	return e, nil
}

func (p *parser) assignment() (node, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	left, err := p.ternaryExpr()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"=", "+=", "-=", "*=", "/=", "%="} {
		if p.is(op) {
			b := p.here()
			switch left.(type) {
			case *ident, *member, *index:
			default:
				return nil, p.errorf("invalid assignment target")
			}
			p.advance()
			value, err := p.assignment()
			if err != nil {
				return nil, err
			}
			return &assign{base: b, op: op, target: left, value: value}, nil
		}
	}
	return left, nil
}

func (p *parser) ternaryExpr() (node, error) {
	cond, err := p.logicalOr()
	if err != nil {
		return nil, err
	}
	if !p.is("?") {
		return cond, nil
	}
	b := p.here()
	p.advance()
	then, err := p.assignment()
	if err != nil {
		return nil, err
	}
	if err := p.expect(":"); err != nil {
		return nil, err
	}
	alt, err := p.assignment()
	if err != nil {
		return nil, err
	}
	return &ternary{base: b, cond: cond, then: then, alt: alt}, nil
}

func (p *parser) logicalOr() (node, error) {
	left, err := p.logicalAnd()
	if err != nil {
		return nil, err
	}
	for p.is("||") {
		b := p.here()
		p.advance()
		right, err := p.logicalAnd()
		if err != nil {
			return nil, err
		}
		left = &logical{base: b, op: "||", left: left, right: right}
	}
	return left, nil
}

func (p *parser) logicalAnd() (node, error) {
	left, err := p.equality()
	if err != nil {
		return nil, err
	}
	for p.is("&&") {
		b := p.here()
		p.advance()
		right, err := p.equality()
		if err != nil {
			return nil, err
		}
		left = &logical{base: b, op: "&&", left: left, right: right}
	}
	return left, nil
}

func (p *parser) equality() (node, error) {
	left, err := p.relational()
	if err != nil {
		return nil, err
	}
	for {
		op := ""
		for _, cand := range []string{"===", "!==", "==", "!="} {
			if p.is(cand) {
				op = cand
				break
			}
		}
		if op == "" {
			return left, nil
		}
		b := p.here()
		p.advance()
		right, err := p.relational()
		if err != nil {
			return nil, err
		}
		left = &binary{base: b, op: op, left: left, right: right}
	}
}

func (p *parser) relational() (node, error) {
	left, err := p.additive()
	if err != nil {
		return nil, err
	}
	for {
		op := ""
		for _, cand := range []string{"<=", ">=", "<", ">"} {
			if p.is(cand) {
				op = cand
				break
			}
		}
		if op == "" {
			return left, nil
		}
		b := p.here()
		p.advance()
		right, err := p.additive()
		if err != nil {
			return nil, err
		}
		left = &binary{base: b, op: op, left: left, right: right}
	}
}

func (p *parser) additive() (node, error) {
	left, err := p.multiplicative()
	if err != nil {
		return nil, err
	}
	for p.is("+") || p.is("-") {
		b := p.here()
		op := p.advance().text
		right, err := p.multiplicative()
		if err != nil {
			return nil, err
		}
		left = &binary{base: b, op: op, left: left, right: right}
	}
	return left, nil
}

func (p *parser) multiplicative() (node, error) {
	left, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for p.is("*") || p.is("/") || p.is("%") {
		b := p.here()
		op := p.advance().text
		right, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		left = &binary{base: b, op: op, left: left, right: right}
	}
	return left, nil
}

func (p *parser) unaryExpr() (node, error) {
	for _, op := range []string{"!", "-", "+", "typeof", "++", "--", "delete"} {
		if p.is(op) {
			b := p.here()
			p.advance()
			operand, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			return &unary{base: b, op: op, operand: operand}, nil
		}
	}
	return p.postfixExpr()
}

func (p *parser) postfixExpr() (node, error) {
	e, err := p.callExpr()
	if err != nil {
		return nil, err
	}
	if p.is("++") || p.is("--") {
		b := p.here()
		op := p.advance().text
		return &postfix{base: b, op: op, operand: e}, nil
	}
	return e, nil
}

func (p *parser) callExpr() (node, error) {
	e, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.is("."):
			b := p.here()
			p.advance()
			t := p.cur()
			if t.kind != tokIdent && t.kind != tokKeyword {
				return nil, p.errorf("expected property name, found %s", t)
			}
			p.advance()
			e = &member{base: b, obj: e, name: t.text}
		case p.is("["):
			b := p.here()
			p.advance()
			key, err := p.expression()
			if err != nil {
				return nil, err
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			e = &index{base: b, obj: e, key: key}
		case p.is("("):
			b := p.here()
			p.advance()
			var args []node
			for !p.is(")") {
				a, err := p.assignment()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if !p.accept(",") {
					break
				}
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			e = &call{base: b, callee: e, args: args}
		default:
			return e, nil
		}
	}
}

func (p *parser) primary() (node, error) {
	b := p.here()
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.advance()
		return &numberLit{base: b, value: t.num}, nil
	case t.kind == tokString:
		p.advance()
		return &stringLit{base: b, value: t.text}, nil
	case p.is("true"):
		p.advance()
		return &boolLit{base: b, value: true}, nil
	case p.is("false"):
		p.advance()
		return &boolLit{base: b, value: false}, nil
	case p.is("null"):
		p.advance()
		return &nullLit{base: b}, nil
	case p.is("undefined"):
		p.advance()
		return &undefinedLit{base: b}, nil
	case p.is("function"):
		p.advance()
		name := ""
		if p.cur().kind == tokIdent {
			name = p.advance().text
		}
		return p.funcRest(b, name)
	case p.is("new"):
		// Limited: `new X(...)` treated as a plain call (object factories).
		p.advance()
		return p.callExpr()
	case p.is("["):
		p.advance()
		lit := &arrayLit{base: b}
		for !p.is("]") {
			e, err := p.assignment()
			if err != nil {
				return nil, err
			}
			lit.elems = append(lit.elems, e)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect("]"); err != nil {
			return nil, err
		}
		return lit, nil
	case p.is("{"):
		p.advance()
		lit := &objectLit{base: b}
		for !p.is("}") {
			kt := p.cur()
			var key string
			switch {
			case kt.kind == tokIdent || kt.kind == tokKeyword:
				key = kt.text
				p.advance()
			case kt.kind == tokString:
				key = kt.text
				p.advance()
			case kt.kind == tokNumber:
				key = formatNumber(kt.num)
				p.advance()
			default:
				return nil, p.errorf("expected property key, found %s", kt)
			}
			if err := p.expect(":"); err != nil {
				return nil, err
			}
			v, err := p.assignment()
			if err != nil {
				return nil, err
			}
			lit.keys = append(lit.keys, key)
			lit.values = append(lit.values, v)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect("}"); err != nil {
			return nil, err
		}
		return lit, nil
	case p.is("("):
		p.advance()
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tokIdent:
		p.advance()
		p.named(t.text)
		return &ident{base: b, name: t.text}, nil
	default:
		return nil, p.errorf("unexpected %s", t)
	}
}
