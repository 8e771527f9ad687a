package script

import (
	"fmt"
	"slices"
	"strconv"

	"pogo/internal/msg"
)

// A script is compiled once, when it is loaded: a resolve pass finds where
// every name lives, then each AST node becomes a Go closure that does what
// the node means. The closures are the only executor.
//
// Names. PogoScript has function scope: a function's frame binds its
// parameters, `arguments` when its body names it, and every name a var,
// function declaration, catch clause or for-in declares anywhere in its
// body outside nested functions. The resolver gives each such name a slot
// in the function's frame. A name is bound in its frame from the moment it
// is declared: parameters and `arguments` from the call's start, the
// others when their declaration runs (a function declaration when the block
// holding it starts). Until then the slot holds unbound, and reading or
// assigning the name reaches past it to the next enclosing frame that binds
// the name, and at last to the global table. So each use of a name compiles
// to the list of (hops, slot) places that may bind it, innermost first,
// ending early at one that is always bound. Everything else is a global:
// the top level's variables, the API and the standard library, and what a
// sloppy assignment makes, all kept by name in one table.
//
// Frames. A frame whose slots some nested function literal refers to is
// captured: every call makes it anew, on the heap, and closures made during
// the call keep it. Any other frame comes from the interpreter's free list
// and goes back when the call returns. A frame's up is the frame closures
// made in the enclosing function keep, so hops count only captured frames
// (and the one-slot frames that bind a named function expression's own
// name).
//
// Steps. Each closure spends one budget step for its node before anything
// else: one per statement or expression node executed, the + nodes of a
// chain outermost first, none for an identifier under typeof or for the
// callee member of o.m(). Stats.Steps — what Table 3's energy model and the
// scenario time series are computed from — and the line a budget error
// names rest on exactly this accounting.

// expr evaluates an expression; stmt executes a statement.
type (
	expr func(in *interp, fr *frame) (value, error)
	stmt func(in *interp, fr *frame) (completion, error)
)

// code is a compiled function literal.
type code struct {
	lit      *funcLit
	nslots   int
	params   []int // the slot of each parameter, in order
	args     int   // the slot of arguments, or -1
	captured bool  // the frames of calls live on the heap
	body     stmt
}

// name is one use of a name in compiled code: the local slots that may bind
// it and, unless the last of them is always bound, the global table.
type name struct {
	id     string
	locals []local
	gpos   int // 1 + the position of the global, once found
	one    [1]local
}

// undefined is the error of reading a name bound nowhere.
func (n *name) undefined(in *interp, line int) error {
	return in.errorf(line, "%s is not defined", n.id)
}

// local is a slot hops frames up from the one the name is used in.
type local struct{ hops, slot int }

// level is the resolver's picture of one kind of frame: a function's, or
// the one-slot frame binding a named function expression's name.
type level struct {
	up       *level
	slots    map[string]int
	bound    []bool // slot is bound for the frame's whole life
	captured bool
	self     bool
}

// heap reports whether frames of the level are kept by closures: those on
// the chain that up links.
func (l *level) heap() bool { return l.captured || l.self }

func (l *level) add(id string, bound bool) int {
	if s, ok := l.slots[id]; ok {
		l.bound[s] = l.bound[s] || bound
		return s
	}
	l.slots[id] = len(l.bound)
	l.bound = append(l.bound, bound)
	return len(l.bound) - 1
}

type compiler struct {
	cur    *level // the function being compiled; nil at the top level
	levels map[*funcLit]*level
	selves map[*funcLit]*level
}

// compile resolves and compiles a parsed program.
func compile(prog *program) stmt {
	c := &compiler{levels: map[*funcLit]*level{}, selves: map[*funcLit]*level{}}
	c.analyse(prog)
	return c.block(prog.line, prog.body, prog.funcs)
}

// ---- resolve ----

// analyse makes the level of every function in n and marks the levels whose
// slots nested functions refer to as captured.
func (c *compiler) analyse(n node) {
	switch e := n.(type) {
	case *funcLit:
		c.within(e, e.name != "", func() { c.analyse(e.body) })
		return
	case *funcDecl:
		c.within(e.fn, false, func() { c.analyse(e.fn.body) })
		return
	case *ident:
		c.capture(e.name)
	case *forInStmt:
		c.capture(e.varName)
	}
	children(n, c.analyse)
}

// within runs body with lit's level current, making the level (and its self
// level) the first time.
func (c *compiler) within(lit *funcLit, named bool, body func()) {
	outer := c.cur
	if named {
		self := c.selves[lit]
		if self == nil {
			self = &level{up: c.cur, slots: map[string]int{}, self: true}
			self.add(lit.name, true)
			c.selves[lit] = self
		}
		c.cur = self
	}
	l := c.levels[lit]
	if l == nil {
		l = &level{up: c.cur, slots: map[string]int{}}
		for _, p := range lit.params {
			l.add(p, true)
		}
		if lit.usesArgs {
			l.add("arguments", true)
		}
		declarations(lit.body, func(id string) { l.add(id, false) })
		c.levels[lit] = l
	}
	c.cur = l
	body()
	c.cur = outer
}

// capture marks the enclosing levels that may bind id, seen from the current
// level, as captured: the places resolve will find.
func (c *compiler) capture(id string) {
	for l := c.cur; l != nil; l = l.up {
		if slot, ok := l.slots[id]; ok {
			l.captured = l.captured || l != c.cur
			if l.bound[slot] {
				return
			}
		}
	}
}

// resolve finds the places that may bind id, seen from the current level,
// once capture has seen every use.
func (c *compiler) resolve(id string) *name {
	n := &name{id: id}
	n.locals = n.one[:0]
	hops := 0
	for l := c.cur; l != nil; l = l.up {
		if l != c.cur {
			if !l.heap() {
				continue
			}
			hops++
		}
		if slot, ok := l.slots[id]; ok {
			n.locals = append(n.locals, local{hops, slot})
			if l.bound[slot] {
				return n
			}
		}
	}
	n.id = msg.InternString(id) // the global table's key
	return n
}

// declarations calls add for each name the statement n declares in its
// function's frame.
func declarations(n node, add func(string)) {
	switch s := n.(type) {
	case *varDecl:
		for _, id := range s.names {
			add(id)
		}
	case *funcDecl:
		add(s.name)
	case *forInStmt:
		if s.declare {
			add(s.varName)
		}
	case *tryStmt:
		if s.catchBody != nil {
			add(s.catchVar)
		}
	}
	switch n.(type) {
	case *blockStmt, *ifStmt, *whileStmt, *forStmt, *forInStmt, *switchStmt, *tryStmt:
		children(n, func(k node) { declarations(k, add) })
	}
}

// children calls f for each child of n, in source order. A function's body
// is not a child of the literal or declaration.
func children(n node, f func(node)) {
	visit := func(ns ...node) {
		for _, k := range ns {
			if k != nil {
				f(k)
			}
		}
	}
	block := func(b *blockStmt) {
		if b != nil {
			f(b)
		}
	}
	switch e := n.(type) {
	case *program:
		visit(e.body...)
	case *blockStmt:
		visit(e.body...)
	case *varDecl:
		visit(e.inits...)
	case *exprStmt:
		visit(e.expr)
	case *ifStmt:
		visit(e.cond, e.then, e.alt)
	case *whileStmt:
		visit(e.cond, e.body)
	case *forStmt:
		visit(e.init, e.cond, e.step, e.body)
	case *forInStmt:
		visit(e.obj, e.body)
	case *returnStmt:
		visit(e.value)
	case *switchStmt:
		visit(e.disc)
		for _, cl := range e.cases {
			visit(cl.test)
			visit(cl.body...)
		}
	case *throwStmt:
		visit(e.value)
	case *tryStmt:
		block(e.block)
		block(e.catchBody)
		block(e.finally)
	case *arrayLit:
		visit(e.elems...)
	case *objectLit:
		visit(e.values...)
	case *member:
		visit(e.obj)
	case *index:
		visit(e.obj, e.key)
	case *call:
		visit(e.callee)
		visit(e.args...)
	case *unary:
		visit(e.operand)
	case *postfix:
		visit(e.operand)
	case *binary:
		visit(e.left, e.right)
	case *logical:
		visit(e.left, e.right)
	case *assign:
		visit(e.target, e.value)
	case *ternary:
		visit(e.cond, e.then, e.alt)
	}
}

// ---- names ----

// closureEnv returns how compiled code finds the frame a closure made here
// keeps: the current frame if closures capture it, else the one it keeps.
func (c *compiler) closureEnv() func(fr *frame) *frame {
	switch {
	case c.cur == nil:
		return func(*frame) *frame { return nil }
	case c.cur.captured:
		return func(fr *frame) *frame { return fr }
	default:
		return func(fr *frame) *frame { return fr.up }
	}
}

// declare compiles the declaration of id in the current frame.
func (c *compiler) declare(id string) func(in *interp, fr *frame, v value) {
	if c.cur == nil {
		n := &name{id: msg.InternString(id)}
		return func(in *interp, _ *frame, v value) { in.setGlobal(n, v) }
	}
	slot := c.cur.slots[id]
	return func(_ *interp, fr *frame, v value) { fr.vals[slot] = v }
}

// ident compiles a read of a name. A name whose one local place is a slot
// of the current frame — most uses in a function — reads the slot directly
// rather than through lookup.
func (c *compiler) ident(e *ident) expr {
	line, n := e.line, c.resolve(e.name)
	if len(n.locals) == 1 && n.locals[0].hops == 0 {
		slot := n.locals[0].slot
		return func(in *interp, fr *frame) (value, error) {
			if in.spend() {
				return nil, in.overBudget(line)
			}
			if v := fr.vals[slot]; !isUnbound(v) {
				return v, nil
			}
			if v, ok := in.global(n); ok {
				return v, nil
			}
			return nil, n.undefined(in, line)
		}
	}
	return func(in *interp, fr *frame) (value, error) {
		if in.spend() {
			return nil, in.overBudget(line)
		}
		if v, ok := in.lookup(n, fr); ok {
			return v, nil
		}
		return nil, n.undefined(in, line)
	}
}

// ---- statements ----

func (c *compiler) stmts(ns []node) []stmt {
	out := make([]stmt, len(ns))
	for i, n := range ns {
		out[i] = c.stmt(n)
	}
	return out
}

// block compiles a block: its function declarations are bound when it
// starts, each to a new closure.
func (c *compiler) block(line int, body []node, funcs []*funcDecl) stmt {
	type hoist struct {
		code    *code
		declare func(in *interp, fr *frame, v value)
	}
	hoists := make([]hoist, len(funcs))
	for i, fd := range funcs {
		hoists[i] = hoist{c.function(fd.fn, false), c.declare(fd.name)}
	}
	env := c.closureEnv()
	list := c.stmts(body)
	return func(in *interp, fr *frame) (completion, error) {
		if in.spend() {
			return normal, in.overBudget(line)
		}
		for _, h := range hoists {
			h.declare(in, fr, &function{code: h.code, env: env(fr)})
		}
		for _, s := range list {
			if done, err := s(in, fr); done != normal || err != nil {
				return done, err
			}
		}
		return normal, nil
	}
}

func (c *compiler) stmt(n node) stmt {
	line, _ := n.pos()
	switch s := n.(type) {
	case *blockStmt:
		return c.block(line, s.body, s.funcs)
	case *varDecl:
		return c.varDecl(s)
	case *funcDecl:
		return func(in *interp, _ *frame) (completion, error) {
			return normal, in.charge(line) // bound when its block starts
		}
	case *exprStmt:
		e := c.expr(s.expr)
		return func(in *interp, fr *frame) (completion, error) {
			if in.spend() {
				return normal, in.overBudget(line)
			}
			_, err := e(in, fr)
			return normal, err
		}
	case *ifStmt:
		return c.ifStmt(s)
	case *whileStmt:
		return c.whileStmt(s)
	case *forStmt:
		return c.forStmt(s)
	case *forInStmt:
		return c.forInStmt(s)
	case *returnStmt:
		val := c.optExpr(s.value)
		return func(in *interp, fr *frame) (completion, error) {
			if in.spend() {
				return normal, in.overBudget(line)
			}
			var v value = undefined
			if val != nil {
				var err error
				if v, err = val(in, fr); err != nil {
					return normal, err
				}
			}
			in.ret = v
			return returnDone, nil
		}
	case *breakStmt:
		return func(in *interp, _ *frame) (completion, error) {
			return breakDone, in.charge(line)
		}
	case *continueStmt:
		return func(in *interp, _ *frame) (completion, error) {
			return continueDone, in.charge(line)
		}
	case *switchStmt:
		return c.switchStmt(s)
	case *throwStmt:
		value := c.expr(s.value)
		return func(in *interp, fr *frame) (completion, error) {
			if in.spend() {
				return normal, in.overBudget(line)
			}
			v, err := value(in, fr)
			if err != nil {
				return normal, err
			}
			return normal, throwSignal{value: v, line: line}
		}
	case *tryStmt:
		return c.tryStmt(s)
	}
	panic(fmt.Sprintf("script: no statement %T", n)) // the parser makes none
}

func (c *compiler) optExpr(n node) expr {
	if n == nil {
		return nil
	}
	return c.expr(n)
}

func (c *compiler) varDecl(s *varDecl) stmt {
	line := s.line
	inits := make([]expr, len(s.names))
	decls := make([]func(*interp, *frame, value), len(s.names))
	for i, id := range s.names {
		inits[i] = c.optExpr(s.inits[i])
		decls[i] = c.declare(id)
	}
	return func(in *interp, fr *frame) (completion, error) {
		if in.spend() {
			return normal, in.overBudget(line)
		}
		for i, init := range inits {
			var v value = undefined
			if init != nil {
				var err error
				if v, err = init(in, fr); err != nil {
					return normal, err
				}
			}
			decls[i](in, fr, v)
		}
		return normal, nil
	}
}

func (c *compiler) ifStmt(s *ifStmt) stmt {
	line := s.line
	cond, then := c.expr(s.cond), c.stmt(s.then)
	var alt stmt
	if s.alt != nil {
		alt = c.stmt(s.alt)
	}
	return func(in *interp, fr *frame) (completion, error) {
		if in.spend() {
			return normal, in.overBudget(line)
		}
		v, err := cond(in, fr)
		if err != nil {
			return normal, err
		}
		if truthy(v) {
			return then(in, fr)
		}
		if alt != nil {
			return alt(in, fr)
		}
		return normal, nil
	}
}

// loopBody runs a loop's body once: stop says whether the loop ends, with
// what completion and error.
func loopBody(body stmt, in *interp, fr *frame) (stop bool, done completion, err error) {
	done, err = body(in, fr)
	switch {
	case err != nil:
		return true, normal, err
	case done == breakDone:
		return true, normal, nil
	case done == returnDone:
		return true, done, nil
	}
	return false, normal, nil
}

func (c *compiler) whileStmt(s *whileStmt) stmt {
	line, post := s.line, s.post
	cond, body := c.expr(s.cond), c.stmt(s.body)
	return func(in *interp, fr *frame) (completion, error) {
		if in.spend() {
			return normal, in.overBudget(line)
		}
		for {
			if !post {
				v, err := cond(in, fr)
				if err != nil || !truthy(v) {
					return normal, err
				}
			}
			if stop, done, err := loopBody(body, in, fr); stop {
				return done, err
			}
			if post {
				v, err := cond(in, fr)
				if err != nil || !truthy(v) {
					return normal, err
				}
			}
		}
	}
}

func (c *compiler) forStmt(s *forStmt) stmt {
	line := s.line
	var init stmt
	switch i := s.init.(type) {
	case nil:
	case *varDecl:
		init = c.varDecl(i)
	default:
		e := c.expr(i)
		init = func(in *interp, fr *frame) (completion, error) {
			_, err := e(in, fr)
			return normal, err
		}
	}
	cond, step, body := c.optExpr(s.cond), c.optExpr(s.step), c.stmt(s.body)
	return func(in *interp, fr *frame) (completion, error) {
		if in.spend() {
			return normal, in.overBudget(line)
		}
		if init != nil {
			if _, err := init(in, fr); err != nil {
				return normal, err
			}
		}
		for {
			if cond != nil {
				v, err := cond(in, fr)
				if err != nil || !truthy(v) {
					return normal, err
				}
			}
			if stop, done, err := loopBody(body, in, fr); stop {
				return done, err
			}
			if step != nil {
				if _, err := step(in, fr); err != nil {
					return normal, err
				}
			}
		}
	}
}

// literalSizeMax caps the entries an object literal makes room for, so that
// one huge object does not size every later one from its site.
const literalSizeMax = 256

// literalSize is how many entries an object literal with keys keys makes
// room for when the object its site made last (nil at first) reached
// len(last.ents): that many and a quarter more, up to literalSizeMax, and
// never fewer than the literal's own keys.
func literalSize(keys int, last *object) int {
	if last == nil {
		return keys
	}
	n := len(last.ents)
	return max(keys, min(n+n/4, literalSizeMax))
}

func (c *compiler) forInStmt(s *forInStmt) stmt {
	line := s.line
	obj := c.expr(s.obj)
	var declare func(*interp, *frame, value)
	if s.declare {
		declare = c.declare(s.varName)
	}
	n := c.resolve(s.varName)
	body := c.stmt(s.body)
	return func(in *interp, fr *frame) (completion, error) {
		if in.spend() {
			return normal, in.overBudget(line)
		}
		o, err := obj(in, fr)
		if err != nil {
			return normal, err
		}
		// The keys are fixed at loop start, copied into in.keys above the
		// walks already in progress; a walk nested in the body works above
		// this one's and cuts the scratch back to its base when it exits.
		base := len(in.keys)
		switch o := o.(type) {
		case *object:
			in.keys = o.appendKeys(in.keys)
		case *array:
			for i := range o.len() {
				in.keys = append(in.keys, strconv.Itoa(i))
			}
		case nil, undefinedType:
			return normal, nil
		default:
			return normal, in.errorf(line, "for-in over %s", typeName(o))
		}
		top := len(in.keys)
		if declare != nil {
			declare(in, fr, undefined)
		}
		done, err := normal, error(nil)
		for i := base; i < top; i++ {
			in.assign(n, fr, msg.BoxString(in.keys[i]))
			if stop, d, e := loopBody(body, in, fr); stop {
				done, err = d, e
				break
			}
		}
		clear(in.keys[base:])
		in.keys = in.keys[:base]
		return done, err
	}
}

func (c *compiler) switchStmt(s *switchStmt) stmt {
	line := s.line
	disc := c.expr(s.disc)
	tests := make([]expr, len(s.cases))
	bodies := make([][]stmt, len(s.cases))
	deflt := -1
	for i, cl := range s.cases {
		if cl.test == nil {
			deflt = i
		} else {
			tests[i] = c.expr(cl.test)
		}
		bodies[i] = c.stmts(cl.body)
	}
	return func(in *interp, fr *frame) (completion, error) {
		if in.spend() {
			return normal, in.overBudget(line)
		}
		d, err := disc(in, fr)
		if err != nil {
			return normal, err
		}
		start := deflt
		for i, test := range tests {
			if test == nil {
				continue
			}
			v, err := test(in, fr)
			if err != nil {
				return normal, err
			}
			if strictEquals(d, v) {
				start = i
				break
			}
		}
		if start < 0 {
			return normal, nil
		}
		// Execute from the matched clause, falling through until break.
		for _, body := range bodies[start:] {
			for _, st := range body {
				if done, err := st(in, fr); done != normal || err != nil {
					if done == breakDone {
						done = normal
					}
					return done, err
				}
			}
		}
		return normal, nil
	}
}

func (c *compiler) tryStmt(s *tryStmt) stmt {
	line := s.line
	block := c.stmt(s.block)
	var catchBody, finally stmt
	var catchVar func(*interp, *frame, value)
	if s.catchBody != nil {
		catchVar, catchBody = c.declare(s.catchVar), c.stmt(s.catchBody)
	}
	if s.finally != nil {
		finally = c.stmt(s.finally)
	}
	return func(in *interp, fr *frame) (completion, error) {
		if in.spend() {
			return normal, in.overBudget(line)
		}
		done, err := block(in, fr)
		if ts, ok := err.(throwSignal); ok && catchBody != nil {
			catchVar(in, fr, ts.value)
			done, err = catchBody(in, fr)
		}
		if finally != nil {
			ret := in.ret // of a return the finally block interrupts
			if fdone, ferr := finally(in, fr); fdone != normal || ferr != nil {
				return fdone, ferr
			}
			in.ret = ret
		}
		return done, err
	}
}

// ---- expressions ----

func (c *compiler) exprs(ns []node) []expr {
	out := make([]expr, len(ns))
	for i, n := range ns {
		out[i] = c.expr(n)
	}
	return out
}

// constant compiles a literal: its value, boxed once.
func constant(line int, v value) expr {
	return func(in *interp, _ *frame) (value, error) {
		if in.spend() {
			return nil, in.overBudget(line)
		}
		return v, nil
	}
}

func (c *compiler) expr(n node) expr {
	line, _ := n.pos()
	switch e := n.(type) {
	case *numberLit:
		return constant(line, e.value)
	case *stringLit:
		return constant(line, e.value)
	case *boolLit:
		return constant(line, e.value)
	case *nullLit:
		return constant(line, nil)
	case *undefinedLit:
		return constant(line, undefined)
	case *ident:
		return c.ident(e)
	case *arrayLit:
		elems := c.exprs(e.elems)
		return func(in *interp, fr *frame) (value, error) {
			if in.spend() {
				return nil, in.overBudget(line)
			}
			arr := &array{elems: make([]value, 0, len(elems))}
			for _, el := range elems {
				v, err := el(in, fr)
				if err != nil {
					return nil, err
				}
				arr.elems = append(arr.elems, v)
			}
			return arr, nil
		}
	case *objectLit:
		keys := make([]string, len(e.keys))
		for i, k := range e.keys {
			keys[i] = msg.InternString(k)
		}
		values := c.exprs(e.values)
		// last is the object this site made most recently: the entries it
		// reached size the next one's, which are then allocated once.
		var last *object
		return func(in *interp, fr *frame) (value, error) {
			if in.spend() {
				return nil, in.overBudget(line)
			}
			obj := newObject()
			if n := literalSize(len(keys), last); n > 0 {
				obj.ents = make([]entry, 0, n)
			}
			last = obj
			for i, k := range keys {
				v, err := values[i](in, fr)
				if err != nil {
					return nil, err
				}
				obj.set(k, v)
			}
			return obj, nil
		}
	case *funcLit:
		return c.funcLit(e)
	case *member:
		obj, id := c.expr(e.obj), msg.InternString(e.name)
		return func(in *interp, fr *frame) (value, error) {
			if in.spend() {
				return nil, in.overBudget(line)
			}
			o, err := obj(in, fr)
			if err != nil {
				return nil, err
			}
			return in.getProperty(line, o, id)
		}
	case *index:
		obj, key := c.expr(e.obj), c.expr(e.key)
		return func(in *interp, fr *frame) (value, error) {
			if in.spend() {
				return nil, in.overBudget(line)
			}
			o, err := obj(in, fr)
			if err != nil {
				return nil, err
			}
			k, err := key(in, fr)
			if err != nil {
				return nil, err
			}
			return in.element(line, o, k)
		}
	case *call:
		cs := c.call(e)
		return func(in *interp, fr *frame) (value, error) { return cs.run(in, fr, false) }
	case *unary:
		return c.unary(e)
	case *postfix:
		return c.update(e.line, e.operand, e.op == "++", true)
	case *binary:
		return c.binary(e)
	case *logical:
		left, right, and := c.expr(e.left), c.expr(e.right), e.op == "&&"
		return func(in *interp, fr *frame) (value, error) {
			if in.spend() {
				return nil, in.overBudget(line)
			}
			l, err := left(in, fr)
			if err != nil || truthy(l) != and {
				return l, err
			}
			return right(in, fr)
		}
	case *ternary:
		cond, then, alt := c.expr(e.cond), c.expr(e.then), c.expr(e.alt)
		return func(in *interp, fr *frame) (value, error) {
			if in.spend() {
				return nil, in.overBudget(line)
			}
			v, err := cond(in, fr)
			if err != nil {
				return nil, err
			}
			if truthy(v) {
				return then(in, fr)
			}
			return alt(in, fr)
		}
	case *assign:
		return c.assign(e)
	}
	panic(fmt.Sprintf("script: no expression %T", n)) // the parser makes none
}

// function compiles a function literal's body.
func (c *compiler) function(lit *funcLit, named bool) *code {
	k := &code{lit: lit, args: -1}
	c.within(lit, named, func() {
		l := c.cur
		k.nslots, k.captured = len(l.bound), l.captured
		for _, p := range lit.params {
			k.params = append(k.params, l.slots[p])
		}
		if lit.usesArgs {
			k.args = l.slots["arguments"]
		}
		k.body = c.block(lit.body.line, lit.body.body, lit.body.funcs)
	})
	return k
}

// funcLit compiles a function expression: each evaluation makes a closure.
// A named one binds its own name in a frame of its own between the closure
// and the frame it keeps.
func (c *compiler) funcLit(e *funcLit) expr {
	line, env := e.line, c.closureEnv()
	k := c.function(e, e.name != "")
	if e.name == "" {
		return func(in *interp, fr *frame) (value, error) {
			if in.spend() {
				return nil, in.overBudget(line)
			}
			return &function{code: k, env: env(fr)}, nil
		}
	}
	return func(in *interp, fr *frame) (value, error) {
		if in.spend() {
			return nil, in.overBudget(line)
		}
		self := &frame{vals: make([]value, 1), up: env(fr)}
		fn := &function{code: k, env: self}
		self.vals[0] = fn
		return fn, nil
	}
}

// callee kinds: how a call finds the function and its receiver.
const (
	calleeValue  = iota // f(...): any expression; no receiver
	calleeMember        // o.m(...): o is the receiver
	calleeIndex         // o[k](...): o is the receiver
)

// callSite is a compiled call.
type callSite struct {
	line  int
	kind  int
	fn    expr   // calleeValue
	obj   expr   // calleeMember, calleeIndex
	key   expr   // calleeIndex
	id    string // calleeMember
	cline int    // the line of the member or index
	args  []expr
}

func (c *compiler) call(e *call) *callSite {
	cs := &callSite{line: e.line, args: c.exprs(e.args)}
	switch t := e.callee.(type) {
	case *member:
		cs.kind, cs.obj, cs.id, cs.cline = calleeMember, c.expr(t.obj), msg.InternString(t.name), t.line
	case *index:
		cs.kind, cs.obj, cs.key, cs.cline = calleeIndex, c.expr(t.obj), c.expr(t.key), t.line
	default:
		cs.kind, cs.fn = calleeValue, c.expr(e.callee)
	}
	return cs
}

// run makes the call. A call that is an operand of a + chain already text
// (piece) lets a builtin that can write its result as text (json) write it
// straight into the chain: the string it would return is never made.
// Charges and evaluation order are the call's as ever.
func (cs *callSite) run(in *interp, fr *frame, piece bool) (value, error) {
	if in.spend() {
		return nil, in.overBudget(cs.line)
	}
	var this value = undefined
	var callee value
	var err error
	switch cs.kind {
	case calleeMember:
		if this, err = cs.obj(in, fr); err != nil {
			return nil, err
		}
		callee, err = in.getProperty(cs.cline, this, cs.id)
	case calleeIndex:
		if this, err = cs.obj(in, fr); err != nil {
			return nil, err
		}
		var key value
		if key, err = cs.key(in, fr); err != nil {
			return nil, err
		}
		callee, err = in.element(cs.cline, this, key)
	default:
		callee, err = cs.fn(in, fr)
	}
	if err != nil {
		return nil, err
	}
	// The arguments are the top of the interpreter's stack for as long as the
	// call runs. Evaluating one may grow the stack, so index it afresh.
	base := len(in.args)
	top := base + len(cs.args)
	for range cs.args {
		in.args = append(in.args, nil)
	}
	for i, a := range cs.args {
		v, err := a(in, fr)
		if err != nil {
			in.popArgs(base)
			return nil, err
		}
		in.args[base+i] = v
	}
	var v value
	if b, ok := callee.(*builtin); ok && piece && b.text != nil {
		var cat []byte
		if cat, err = b.text(in, in.cat, in.args[base:top:top]); err == nil {
			in.cat, v = cat, wroteText{}
		}
	} else {
		v, err = in.invoke(cs.line, callee, this, in.args[base:top:top])
	}
	in.popArgs(base)
	return v, err
}

func (c *compiler) unary(e *unary) expr {
	line := e.line
	switch e.op {
	case "typeof":
		// typeof tolerates undefined identifiers.
		if id, ok := e.operand.(*ident); ok {
			n := c.resolve(id.name)
			return func(in *interp, fr *frame) (value, error) {
				if err := in.charge(line); err != nil {
					return nil, err
				}
				if v, ok := in.lookup(n, fr); ok {
					return typeOf(v), nil
				}
				return typeOf(undefined), nil
			}
		}
		operand := c.expr(e.operand)
		return func(in *interp, fr *frame) (value, error) {
			if in.spend() {
				return nil, in.overBudget(line)
			}
			v, err := operand(in, fr)
			if err != nil {
				return nil, err
			}
			return typeOf(v), nil
		}
	case "delete":
		var obj, key expr
		var id string
		switch t := e.operand.(type) {
		case *member:
			obj, id = c.expr(t.obj), msg.InternString(t.name)
		case *index:
			obj, key = c.expr(t.obj), c.expr(t.key)
		}
		return func(in *interp, fr *frame) (value, error) {
			if in.spend() {
				return nil, in.overBudget(line)
			}
			if obj == nil {
				return true, nil
			}
			o, err := obj(in, fr)
			if err != nil {
				return nil, err
			}
			k := id
			if key != nil {
				kv, err := key(in, fr)
				if err != nil {
					return nil, err
				}
				k = toString(kv)
			}
			if o, ok := o.(*object); ok {
				o.delete(k)
			}
			return true, nil
		}
	case "++", "--":
		return c.update(line, e.operand, e.op == "++", false)
	}
	operand, op := c.expr(e.operand), e.op
	return func(in *interp, fr *frame) (value, error) {
		if in.spend() {
			return nil, in.overBudget(line)
		}
		v, err := operand(in, fr)
		if err != nil {
			return nil, err
		}
		switch op {
		case "!":
			return !truthy(v), nil
		case "-":
			return boxNum(-toNumber(v)), nil
		default: // the parser's unary operators end with +
			return boxNum(toNumber(v)), nil
		}
	}
}

// typeNames holds typeof's answers boxed once.
var typeNames = map[string]value{}

func init() {
	for _, t := range []string{"undefined", "object", "boolean", "number", "string", "function"} {
		typeNames[t] = t
	}
}

func typeOf(v value) value { return typeNames[typeName(v)] }

// update compiles ++ and --: the target is read as an expression, then
// written as an assignment writes it, its object and key evaluated again.
func (c *compiler) update(line int, target node, inc, post bool) expr {
	old, store := c.expr(target), c.store(target)
	delta := -1.0
	if inc {
		delta = 1
	}
	return func(in *interp, fr *frame) (value, error) {
		if in.spend() {
			return nil, in.overBudget(line)
		}
		o, err := old(in, fr)
		if err != nil {
			return nil, err
		}
		n := toNumber(o)
		v := boxNum(n + delta)
		if err := store(in, fr, v); err != nil {
			return nil, err
		}
		if post {
			return boxNum(n), nil
		}
		return v, nil
	}
}

// store compiles a write to an assignment target: a name, or a property
// whose object (and key) it evaluates.
func (c *compiler) store(target node) func(in *interp, fr *frame, v value) error {
	switch t := target.(type) {
	case *ident:
		n := c.resolve(t.name)
		return func(in *interp, fr *frame, v value) error {
			in.assign(n, fr, v)
			return nil
		}
	case *member:
		obj, id, line := c.expr(t.obj), msg.InternString(t.name), t.line
		return func(in *interp, fr *frame, v value) error {
			o, err := obj(in, fr)
			if err != nil {
				return err
			}
			return in.setProperty(line, o, id, v)
		}
	case *index:
		obj, key, line := c.expr(t.obj), c.expr(t.key), t.line
		return func(in *interp, fr *frame, v value) error {
			o, err := obj(in, fr)
			if err != nil {
				return err
			}
			k, err := key(in, fr)
			if err != nil {
				return err
			}
			return in.setElement(line, o, k, v)
		}
	default:
		line, _ := target.pos()
		return func(in *interp, _ *frame, _ value) error {
			return in.errorf(line, "invalid assignment target")
		}
	}
}

func (c *compiler) assign(e *assign) expr {
	line := e.line
	store, val := c.store(e.target), c.expr(e.value)
	if e.op == "=" {
		return func(in *interp, fr *frame) (value, error) {
			if in.spend() {
				return nil, in.overBudget(line)
			}
			v, err := val(in, fr)
			if err != nil {
				return nil, err
			}
			if err := store(in, fr, v); err != nil {
				return nil, err
			}
			return v, nil
		}
	}
	old := c.expr(e.target)
	op := binops[e.op[:1]] // "+=" → "+"
	return func(in *interp, fr *frame) (value, error) {
		if in.spend() {
			return nil, in.overBudget(line)
		}
		o, err := old(in, fr)
		if err != nil {
			return nil, err
		}
		r, err := val(in, fr)
		if err != nil {
			return nil, err
		}
		v := binaryValue(in, op, o, r)
		if err := store(in, fr, v); err != nil {
			return nil, err
		}
		return v, nil
	}
}

// binaryValue applies op, taking the short way when both operands are
// numbers.
func binaryValue(in *interp, op binop, l, r value) value {
	if lf, ok := l.(float64); ok {
		if rf, ok := r.(float64); ok {
			return numeric(op, lf, rf)
		}
	}
	return in.applyBinary(op, l, r)
}

func (c *compiler) binary(e *binary) expr {
	if l, ok := e.left.(*binary); ok && e.op == "+" && l.op == "+" {
		return c.chain(e)
	}
	line := e.line
	left, right, op := c.expr(e.left), c.expr(e.right), binops[e.op]
	return func(in *interp, fr *frame) (value, error) {
		if in.spend() {
			return nil, in.overBudget(line)
		}
		l, err := left(in, fr)
		if err != nil {
			return nil, err
		}
		r, err := right(in, fr)
		if err != nil {
			return nil, err
		}
		return binaryValue(in, op, l, r), nil
	}
}

// chainOperand is a right operand of a + chain.
type chainOperand struct {
	e    expr
	call *callSite // when the operand is a call
}

// chain compiles a + whose left operand is a + as one chain (see chain in
// interp.go): the + nodes below it are charged outermost first, then the
// leftmost operand is evaluated, then the right operands from the innermost
// + out.
func (c *compiler) chain(e *binary) expr {
	line := e.line
	var lines []int
	var rights []node
	leaf := e.left
	for b, ok := leaf.(*binary); ok && b.op == "+"; b, ok = leaf.(*binary) {
		lines = append(lines, b.line)
		rights = append(rights, b.right)
		leaf = b.left
	}
	first := c.expr(leaf)
	slices.Reverse(rights)
	var ops []chainOperand
	for _, r := range append(rights, e.right) {
		if call, ok := r.(*call); ok {
			ops = append(ops, chainOperand{call: c.call(call)})
		} else {
			ops = append(ops, chainOperand{e: c.expr(r)})
		}
	}
	return func(in *interp, fr *frame) (value, error) {
		if in.spend() {
			return nil, in.overBudget(line)
		}
		ch := chain{base: len(in.cat)}
		v, err := in.runChain(&ch, fr, lines, first, ops)
		in.cat = in.cat[:ch.base]
		return v, err
	}
}

func (in *interp) runChain(ch *chain, fr *frame, lines []int, first expr, ops []chainOperand) (value, error) {
	for _, l := range lines {
		if in.spend() {
			return nil, in.overBudget(l)
		}
	}
	var err error
	if ch.left, err = first(in, fr); err != nil {
		return nil, err
	}
	for _, op := range ops {
		var right value
		if op.call != nil {
			right, err = op.call.run(in, fr, ch.text)
		} else {
			right, err = op.e(in, fr)
		}
		if err != nil {
			return nil, err
		}
		if _, ok := right.(wroteText); ok {
			ch.pieces++
			ch.only = nil
			continue
		}
		in.plus(ch, right)
	}
	return in.chainValue(ch), nil
}
