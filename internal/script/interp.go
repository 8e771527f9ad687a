package script

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
)

// RuntimeError reports a failure during script execution.
type RuntimeError struct {
	Script string
	Line   int
	Msg    string
	// Thrown holds the value of a script `throw` that escaped, or nil.
	Thrown Value
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("%s:%d: %s", e.Script, e.Line, e.Msg)
}

// ErrBudget is wrapped into the RuntimeError produced when a script call
// exceeds its step budget (the paper's 100 ms call timeout, §4.5).
var ErrBudget = errors.New("script: execution budget exceeded")

// scope is one lexical environment frame. PogoScript uses function-level
// scoping (JavaScript `var` semantics); blocks do not introduce frames.
type scope struct {
	table
	parent *scope
	// captured is set once a function value closes over the frame; a call's
	// frame that nothing captured goes back to the interpreter for the next
	// call.
	captured bool
}

func newScope(parent *scope) *scope { return &scope{parent: parent} }

func (s *scope) lookup(name string) (Value, bool) {
	for e := s; e != nil; e = e.parent {
		if i := e.find(name); i >= 0 {
			return e.ents[i].val, true
		}
	}
	return nil, false
}

// set assigns to an existing binding, or creates a global (top frame)
// binding when none exists — sloppy-mode JavaScript.
func (s *scope) set(name string, v Value) {
	for e := s; ; e = e.parent {
		if i := e.find(name); i >= 0 {
			e.ents[i].val = v
			return
		}
		if e.parent == nil {
			e.put(name, v)
			return
		}
	}
}

// declare creates a binding in this frame.
func (s *scope) declare(name string, v Value) { s.put(name, v) }

// control-flow signals travel as errors.
type breakSignal struct{}
type continueSignal struct{}

func (breakSignal) Error() string    { return "break outside loop" }
func (continueSignal) Error() string { return "continue outside loop" }

// returnSignal unwinds to the call being returned from; the value travels in
// interp.ret, so that a return allocates nothing.
type returnSignal struct{}

func (returnSignal) Error() string { return "return outside function" }

type throwSignal struct {
	value Value
	line  int
}

func (t throwSignal) Error() string { return "uncaught: " + ToString(t.value) }

// maxCallDepth bounds script-level call nesting so runaway recursion gets a
// clean RuntimeError instead of exhausting the Go stack.
const maxCallDepth = 2000

// interp evaluates an AST under a step budget. A Script keeps one for all its
// entries, which run one at a time, so what a call needs only while it runs
// is taken from the interpreter and handed back.
type interp struct {
	name    string
	globals *scope
	steps   int // remaining budget for the current entry
	depth   int // current script call nesting

	ret    Value    // the value a returnSignal carries
	args   []Value  // argument stack: a call's arguments are its top slots
	frames []*scope // frames of finished calls, free for the next
	buf    []byte   // json() output before it becomes a string
	cat    []byte   // the text of the + chains being evaluated, innermost last
	spine  []*binary
	piece  *call // a chain operand whose builtin may write into cat (operand)
}

// begin readies the interpreter for one entry into script code.
func (in *interp) begin(budget int) {
	in.steps, in.depth, in.ret = budget, 0, nil
	// An entry that failed may have left arguments behind.
	clear(in.args)
	in.args = in.args[:0]
	in.cat, in.spine, in.piece = in.cat[:0], in.spine[:0], nil
}

// newFrame returns an empty frame for a call that binds up to nlocals names.
func (in *interp) newFrame(parent *scope, nlocals int) *scope {
	if n := len(in.frames); n > 0 {
		f := in.frames[n-1]
		in.frames = in.frames[:n-1]
		f.parent = parent
		return f
	}
	return &scope{table: table{ents: make([]entry, 0, nlocals)}, parent: parent}
}

// releaseFrame takes back the frame of a finished call, unless a closure
// still refers to it.
func (in *interp) releaseFrame(f *scope) {
	if f.captured {
		return
	}
	clear(f.ents)
	f.ents, f.index, f.parent = f.ents[:0], nil, nil
	in.frames = append(in.frames, f)
}

// closure makes a function value of lit that closes over env.
func closure(lit *funcLit, env *scope) *Function {
	env.captured = true
	return &Function{lit: lit, env: env}
}

func (in *interp) errorf(n node, format string, args ...any) error {
	line := 0
	if n != nil {
		line, _ = n.pos()
	}
	return &RuntimeError{Script: in.name, Line: line, Msg: fmt.Sprintf(format, args...)}
}

// charge spends one budget step.
func (in *interp) charge(n node) error {
	in.steps--
	if in.steps < 0 {
		line := 0
		if n != nil {
			line, _ = n.pos()
		}
		return &RuntimeError{Script: in.name, Line: line, Msg: ErrBudget.Error()}
	}
	return nil
}

// execBlockBody hoists function declarations into the frame of the function
// the block belongs to (the global frame at top level), then executes
// statements.
func (in *interp) execBlockBody(body []node, funcs []*funcDecl, env *scope) error {
	for _, fd := range funcs {
		env.declare(fd.name, closure(fd.fn, env))
	}
	for _, stmt := range body {
		if err := in.exec(stmt, env); err != nil {
			return err
		}
	}
	return nil
}

func (in *interp) exec(n node, env *scope) error {
	if err := in.charge(n); err != nil {
		return err
	}
	switch s := n.(type) {
	case *program:
		return in.execBlockBody(s.body, s.funcs, env)
	case *blockStmt:
		return in.execBlockBody(s.body, s.funcs, env)
	case *varDecl:
		for i, name := range s.names {
			var v Value = Undefined
			if s.inits[i] != nil {
				ev, err := in.eval(s.inits[i], env)
				if err != nil {
					return err
				}
				v = ev
			}
			env.declare(name, v)
		}
		return nil
	case *funcDecl:
		return nil // hoisted by execBlockBody
	case *exprStmt:
		_, err := in.eval(s.expr, env)
		return err
	case *ifStmt:
		cond, err := in.eval(s.cond, env)
		if err != nil {
			return err
		}
		if Truthy(cond) {
			return in.exec(s.then, env)
		}
		if s.alt != nil {
			return in.exec(s.alt, env)
		}
		return nil
	case *whileStmt:
		for {
			if !s.post {
				cond, err := in.eval(s.cond, env)
				if err != nil {
					return err
				}
				if !Truthy(cond) {
					return nil
				}
			}
			if err := in.exec(s.body, env); err != nil {
				switch err.(type) {
				case breakSignal:
					return nil
				case continueSignal:
					// fall through to the post-condition check
				default:
					return err
				}
			}
			if s.post {
				cond, err := in.eval(s.cond, env)
				if err != nil {
					return err
				}
				if !Truthy(cond) {
					return nil
				}
			}
		}
	case *forStmt:
		if s.init != nil {
			if vd, ok := s.init.(*varDecl); ok {
				if err := in.exec(vd, env); err != nil {
					return err
				}
			} else if _, err := in.eval(s.init, env); err != nil {
				return err
			}
		}
		for {
			if s.cond != nil {
				cond, err := in.eval(s.cond, env)
				if err != nil {
					return err
				}
				if !Truthy(cond) {
					return nil
				}
			}
			if err := in.exec(s.body, env); err != nil {
				switch err.(type) {
				case breakSignal:
					return nil
				case continueSignal:
				default:
					return err
				}
			}
			if s.step != nil {
				if _, err := in.eval(s.step, env); err != nil {
					return err
				}
			}
		}
	case *forInStmt:
		obj, err := in.eval(s.obj, env)
		if err != nil {
			return err
		}
		var keys []string
		switch o := obj.(type) {
		case *Object:
			keys = o.Keys()
		case *Array:
			keys = make([]string, o.Len())
			for i := range keys {
				keys[i] = strconv.Itoa(i)
			}
		case nil, UndefinedType:
			return nil
		default:
			return in.errorf(s, "for-in over %s", TypeOf(obj))
		}
		if s.declare {
			env.declare(s.varName, Undefined)
		}
		for _, k := range keys {
			env.set(s.varName, k)
			if err := in.exec(s.body, env); err != nil {
				switch err.(type) {
				case breakSignal:
					return nil
				case continueSignal:
					continue
				default:
					return err
				}
			}
		}
		return nil
	case *returnStmt:
		var v Value = Undefined
		if s.value != nil {
			ev, err := in.eval(s.value, env)
			if err != nil {
				return err
			}
			v = ev
		}
		in.ret = v
		return returnSignal{}
	case *breakStmt:
		return breakSignal{}
	case *continueStmt:
		return continueSignal{}
	case *switchStmt:
		disc, err := in.eval(s.disc, env)
		if err != nil {
			return err
		}
		start := -1
		for i, cl := range s.cases {
			if cl.test == nil {
				continue
			}
			tv, err := in.eval(cl.test, env)
			if err != nil {
				return err
			}
			if strictEquals(disc, tv) {
				start = i
				break
			}
		}
		if start == -1 {
			for i, cl := range s.cases {
				if cl.test == nil {
					start = i
					break
				}
			}
		}
		if start == -1 {
			return nil
		}
		// Execute from the matched clause, falling through until break.
		for i := start; i < len(s.cases); i++ {
			for _, stmt := range s.cases[i].body {
				if err := in.exec(stmt, env); err != nil {
					if _, isBreak := err.(breakSignal); isBreak {
						return nil
					}
					return err
				}
			}
		}
		return nil
	case *throwStmt:
		v, err := in.eval(s.value, env)
		if err != nil {
			return err
		}
		line, _ := s.pos()
		return throwSignal{value: v, line: line}
	case *tryStmt:
		err := in.exec(s.block, env)
		if ts, ok := err.(throwSignal); ok && s.catchBody != nil {
			env.declare(s.catchVar, ts.value)
			err = in.exec(s.catchBody, env)
		}
		if s.finally != nil {
			ret := in.ret // of a return the finally block interrupts
			if ferr := in.exec(s.finally, env); ferr != nil {
				return ferr
			}
			in.ret = ret
		}
		return err
	default:
		return in.errorf(n, "internal: unknown statement %T", n)
	}
}

func (in *interp) eval(n node, env *scope) (Value, error) {
	if err := in.charge(n); err != nil {
		return nil, err
	}
	switch e := n.(type) {
	case *numberLit:
		return e.value, nil
	case *stringLit:
		return e.value, nil
	case *boolLit:
		return e.value, nil
	case *nullLit:
		return nil, nil
	case *undefinedLit:
		return Undefined, nil
	case *ident:
		if v, ok := env.lookup(e.name); ok {
			return v, nil
		}
		return nil, in.errorf(e, "%s is not defined", e.name)
	case *arrayLit:
		arr := &Array{elems: make([]Value, 0, len(e.elems))}
		for _, el := range e.elems {
			v, err := in.eval(el, env)
			if err != nil {
				return nil, err
			}
			arr.elems = append(arr.elems, v)
		}
		return arr, nil
	case *objectLit:
		obj := NewObject()
		if len(e.keys) > 0 {
			obj.ents = make([]entry, 0, len(e.keys))
		}
		for i, k := range e.keys {
			v, err := in.eval(e.values[i], env)
			if err != nil {
				return nil, err
			}
			obj.Set(k, v)
		}
		return obj, nil
	case *funcLit:
		if e.name == "" {
			return closure(e, env), nil
		}
		// Named function expressions can refer to themselves.
		env.captured = true
		fn := closure(e, newScope(env))
		fn.env.declare(e.name, fn)
		return fn, nil
	case *member:
		obj, err := in.eval(e.obj, env)
		if err != nil {
			return nil, err
		}
		return in.getProperty(e, obj, e.name)
	case *index:
		obj, err := in.eval(e.obj, env)
		if err != nil {
			return nil, err
		}
		key, err := in.eval(e.key, env)
		if err != nil {
			return nil, err
		}
		if arr, ok := obj.(*Array); ok {
			if kf, ok := key.(float64); ok {
				return arr.At(int(kf)), nil
			}
		}
		if s, ok := obj.(string); ok {
			if kf, ok := key.(float64); ok {
				i := int(kf)
				if i >= 0 && i < len(s) {
					return string(s[i]), nil
				}
				return Undefined, nil
			}
		}
		return in.getProperty(e, obj, ToString(key))
	case *call:
		return in.evalCall(e, env)
	case *unary:
		return in.evalUnary(e, env)
	case *postfix:
		old, err := in.eval(e.operand, env)
		if err != nil {
			return nil, err
		}
		n := ToNumber(old)
		delta := 1.0
		if e.op == "--" {
			delta = -1
		}
		if err := in.assignTo(e.operand, boxNum(n+delta), env); err != nil {
			return nil, err
		}
		return boxNum(n), nil
	case *binary:
		return in.evalBinary(e, env)
	case *logical:
		left, err := in.eval(e.left, env)
		if err != nil {
			return nil, err
		}
		if e.op == "&&" {
			if !Truthy(left) {
				return left, nil
			}
		} else if Truthy(left) {
			return left, nil
		}
		return in.eval(e.right, env)
	case *ternary:
		cond, err := in.eval(e.cond, env)
		if err != nil {
			return nil, err
		}
		if Truthy(cond) {
			return in.eval(e.then, env)
		}
		return in.eval(e.alt, env)
	case *assign:
		return in.evalAssign(e, env)
	default:
		return nil, in.errorf(n, "internal: unknown expression %T", n)
	}
}

func (in *interp) evalUnary(e *unary, env *scope) (Value, error) {
	if e.op == "typeof" {
		// typeof tolerates undefined identifiers.
		if id, ok := e.operand.(*ident); ok {
			if v, defined := env.lookup(id.name); defined {
				return TypeOf(v), nil
			}
			return "undefined", nil
		}
		v, err := in.eval(e.operand, env)
		if err != nil {
			return nil, err
		}
		return TypeOf(v), nil
	}
	if e.op == "delete" {
		switch target := e.operand.(type) {
		case *member:
			obj, err := in.eval(target.obj, env)
			if err != nil {
				return nil, err
			}
			if o, ok := obj.(*Object); ok {
				o.Delete(target.name)
			}
			return true, nil
		case *index:
			obj, err := in.eval(target.obj, env)
			if err != nil {
				return nil, err
			}
			key, err := in.eval(target.key, env)
			if err != nil {
				return nil, err
			}
			if o, ok := obj.(*Object); ok {
				o.Delete(ToString(key))
			}
			return true, nil
		default:
			return true, nil
		}
	}
	if e.op == "++" || e.op == "--" {
		old, err := in.eval(e.operand, env)
		if err != nil {
			return nil, err
		}
		n := ToNumber(old)
		if e.op == "++" {
			n++
		} else {
			n--
		}
		v := boxNum(n)
		if err := in.assignTo(e.operand, v, env); err != nil {
			return nil, err
		}
		return v, nil
	}
	v, err := in.eval(e.operand, env)
	if err != nil {
		return nil, err
	}
	switch e.op {
	case "!":
		return !Truthy(v), nil
	case "-":
		return boxNum(-ToNumber(v)), nil
	case "+":
		return boxNum(ToNumber(v)), nil
	default:
		return nil, in.errorf(e, "unsupported unary %q", e.op)
	}
}

func (in *interp) evalBinary(e *binary, env *scope) (Value, error) {
	if b, ok := e.left.(*binary); ok && e.op == "+" && b.op == "+" {
		return in.evalChain(e, env)
	}
	left, err := in.eval(e.left, env)
	if err != nil {
		return nil, err
	}
	right, err := in.eval(e.right, env)
	if err != nil {
		return nil, err
	}
	return in.applyBinary(e, e.op, left, right)
}

// evalChain evaluates a + and the + nodes down its left side as one chain:
// a + b + c parses as (a + b) + c; a lone + is the chain of one in concat.
// Every node is charged and every operand evaluated in the order the tree
// walk would, and each + decides between addition and concatenation as
// applyBinary does, on the same operands: the sum stays a number until a
// string or composite operand turns the chain into text. From then on each
// operand's string form goes into in.cat as soon as the operand is
// evaluated, and the chain's result is made once, at its exact length.
// Chains nested in operands use in.cat and in.spine beyond this chain's share
// and cut them back when done.
func (in *interp) evalChain(e *binary, env *scope) (Value, error) {
	base := len(in.spine)
	c := chain{base: len(in.cat)}
	v, err := in.runChain(e, env, base, &c)
	in.spine, in.cat = in.spine[:base], in.cat[:c.base]
	return v, err
}

func (in *interp) runChain(e *binary, env *scope, base int, c *chain) (Value, error) {
	// The + nodes below e, outermost first, each charged as evaluating it as
	// its parent's left operand would; e itself was charged by eval.
	leaf := e.left
	for b, ok := leaf.(*binary); ok && b.op == "+"; b, ok = leaf.(*binary) {
		if err := in.charge(b); err != nil {
			return nil, err
		}
		in.spine = append(in.spine, b)
		leaf = b.left
	}
	var err error
	if c.left, err = in.eval(leaf, env); err != nil {
		return nil, err
	}
	for i := len(in.spine) - 1; i >= base; i-- {
		if err := in.operand(in.spine[i].right, env, c); err != nil {
			return nil, err
		}
	}
	if err := in.operand(e.right, env, c); err != nil {
		return nil, err
	}
	return in.chainValue(c), nil
}

// operand evaluates a chain's right operand and applies its +. Once the
// chain is text, a call to a builtin that can write its result as text
// (json) writes it straight into in.cat: the string it would return is never
// made. Charges and evaluation order are the call's as ever.
func (in *interp) operand(n node, env *scope, c *chain) error {
	in.piece = nil
	if call, ok := n.(*call); ok && c.text {
		in.piece = call
	}
	right, err := in.eval(n, env)
	if err != nil {
		return err
	}
	if _, ok := right.(wroteText); ok {
		c.pieces++
		c.only = nil
		return nil
	}
	in.plus(c, right)
	return nil
}

// wroteText is what a call made by operand returns when its builtin wrote
// its text into in.cat itself. It never reaches script code.
type wroteText struct{}

// concat is a lone + whose operands make text (and +=): a chain of one.
func (in *interp) concat(left, right Value) Value {
	c := chain{left: left, base: len(in.cat)}
	in.plus(&c, right)
	v := in.chainValue(&c)
	in.cat = in.cat[:c.base]
	return v
}

// chainValue is what an evaluated chain comes to.
func (in *interp) chainValue(c *chain) Value {
	switch {
	case !c.text:
		return boxNum(c.sum)
	case c.pieces == 1 && c.only != nil:
		return c.only // the operand itself: nothing to copy
	default:
		return string(in.cat[c.base:])
	}
}

// chain is the state of a + chain under evaluation.
type chain struct {
	left    Value   // the first operand, until the chain is numeric or text
	sum     float64 // the value so far, once numeric
	numeric bool
	text    bool  // the value so far is the string in.cat[base:]
	base    int   // where the chain's text starts in in.cat
	pieces  int   // non-empty operand strings in the text
	only    Value // the text's one piece, when that is a string operand
}

// plus applies the chain's next + to its right operand.
func (in *interp) plus(c *chain, right Value) {
	switch {
	case c.text:
		in.appendPiece(c, right)
	case (!c.numeric && isText(c.left)) || isText(right):
		c.text = true
		if c.numeric {
			in.cat = appendNumber(in.cat, c.sum)
			c.pieces++
		} else {
			in.appendPiece(c, c.left)
		}
		in.appendPiece(c, right)
	default:
		if !c.numeric {
			c.sum, c.numeric = ToNumber(c.left), true
		}
		c.sum += ToNumber(right)
	}
}

// appendPiece appends v's string form to the chain's text.
func (in *interp) appendPiece(c *chain, v Value) {
	n := len(in.cat)
	if in.cat = appendString(in.cat, v); len(in.cat) == n {
		return
	}
	c.pieces++
	c.only = nil
	if _, ok := v.(string); ok {
		c.only = v
	}
}

// isText reports whether v makes + concatenate: a string or a composite.
func isText(v Value) bool {
	_, s := v.(string)
	return s || isComposite(v)
}

func (in *interp) applyBinary(n node, op string, left, right Value) (Value, error) {
	switch op {
	case ",":
		return right, nil
	case "+":
		if isText(left) || isText(right) {
			return in.concat(left, right), nil
		}
		return boxNum(ToNumber(left) + ToNumber(right)), nil
	case "-":
		return boxNum(ToNumber(left) - ToNumber(right)), nil
	case "*":
		return boxNum(ToNumber(left) * ToNumber(right)), nil
	case "/":
		return boxNum(ToNumber(left) / ToNumber(right)), nil
	case "%":
		return boxNum(math.Mod(ToNumber(left), ToNumber(right))), nil
	case "==":
		return looseEquals(left, right), nil
	case "!=":
		return !looseEquals(left, right), nil
	case "===":
		return strictEquals(left, right), nil
	case "!==":
		return !strictEquals(left, right), nil
	case "<", ">", "<=", ">=":
		if ls, ok := left.(string); ok {
			if rs, ok := right.(string); ok {
				switch op {
				case "<":
					return ls < rs, nil
				case ">":
					return ls > rs, nil
				case "<=":
					return ls <= rs, nil
				default:
					return ls >= rs, nil
				}
			}
		}
		ln, rn := ToNumber(left), ToNumber(right)
		switch op {
		case "<":
			return ln < rn, nil
		case ">":
			return ln > rn, nil
		case "<=":
			return ln <= rn, nil
		default:
			return ln >= rn, nil
		}
	default:
		return nil, in.errorf(n, "unsupported operator %q", op)
	}
}

func isComposite(v Value) bool {
	switch v.(type) {
	case *Object, *Array, *Function, *Builtin:
		return true
	default:
		return false
	}
}

func (in *interp) evalAssign(e *assign, env *scope) (Value, error) {
	var newVal Value
	if e.op == "=" {
		v, err := in.eval(e.value, env)
		if err != nil {
			return nil, err
		}
		newVal = v
	} else {
		old, err := in.eval(e.target, env)
		if err != nil {
			return nil, err
		}
		rhs, err := in.eval(e.value, env)
		if err != nil {
			return nil, err
		}
		op := e.op[:1] // "+=" → "+"
		v, err := in.applyBinary(e, op, old, rhs)
		if err != nil {
			return nil, err
		}
		newVal = v
	}
	if err := in.assignTo(e.target, newVal, env); err != nil {
		return nil, err
	}
	return newVal, nil
}

func (in *interp) assignTo(target node, v Value, env *scope) error {
	switch t := target.(type) {
	case *ident:
		env.set(t.name, v)
		return nil
	case *member:
		obj, err := in.eval(t.obj, env)
		if err != nil {
			return err
		}
		return in.setProperty(t, obj, t.name, v)
	case *index:
		obj, err := in.eval(t.obj, env)
		if err != nil {
			return err
		}
		key, err := in.eval(t.key, env)
		if err != nil {
			return err
		}
		if arr, ok := obj.(*Array); ok {
			if kf, ok := key.(float64); ok {
				if kf < 0 || kf != math.Trunc(kf) {
					return in.errorf(t, "bad array index %v", kf)
				}
				arr.SetAt(int(kf), v)
				return nil
			}
		}
		return in.setProperty(t, obj, ToString(key), v)
	default:
		return in.errorf(target, "invalid assignment target")
	}
}

func (in *interp) setProperty(n node, obj Value, name string, v Value) error {
	switch o := obj.(type) {
	case *Object:
		o.Set(name, v)
		return nil
	case *Array:
		if name == "length" {
			want := int(ToNumber(v))
			if want < 0 {
				return in.errorf(n, "bad length %v", v)
			}
			o.own()
			for len(o.elems) > want {
				o.elems = o.elems[:len(o.elems)-1]
			}
			for len(o.elems) < want {
				o.elems = append(o.elems, Undefined)
			}
			return nil
		}
		return in.errorf(n, "cannot set %q on array", name)
	default:
		return in.errorf(n, "cannot set property %q on %s", name, TypeOf(obj))
	}
}

func (in *interp) evalCall(e *call, env *scope) (Value, error) {
	piece := in.piece == e
	in.piece = nil
	var this Value = Undefined
	var callee Value
	switch c := e.callee.(type) {
	case *member:
		obj, err := in.eval(c.obj, env)
		if err != nil {
			return nil, err
		}
		this = obj
		fn, err := in.getProperty(c, obj, c.name)
		if err != nil {
			return nil, err
		}
		callee = fn
	case *index:
		obj, err := in.eval(c.obj, env)
		if err != nil {
			return nil, err
		}
		key, err := in.eval(c.key, env)
		if err != nil {
			return nil, err
		}
		this = obj
		fn, err := in.getProperty(c, obj, ToString(key))
		if err != nil {
			return nil, err
		}
		callee = fn
	default:
		fn, err := in.eval(e.callee, env)
		if err != nil {
			return nil, err
		}
		callee = fn
	}
	// The arguments are the top of the interpreter's stack for as long as the
	// call runs. Evaluating one may grow the stack, so index it afresh.
	base := len(in.args)
	top := base + len(e.args)
	for range e.args {
		in.args = append(in.args, nil)
	}
	for i, a := range e.args {
		v, err := in.eval(a, env)
		if err != nil {
			clear(in.args[base:top])
			in.args = in.args[:base]
			return nil, err
		}
		in.args[base+i] = v
	}
	var v Value
	var err error
	if b, ok := callee.(*Builtin); ok && piece && b.text != nil {
		var cat []byte
		if cat, err = b.text(in, in.cat, in.args[base:top:top]); err == nil {
			in.cat, v = cat, wroteText{}
		}
	} else {
		v, err = in.invoke(e, callee, this, in.args[base:top:top])
	}
	clear(in.args[base:top])
	in.args = in.args[:base]
	return v, err
}

// invoke calls a script or builtin function value. args belongs to the caller
// again once invoke returns: a callee that keeps the arguments copies them.
func (in *interp) invoke(n node, callee, this Value, args []Value) (Value, error) {
	switch fn := callee.(type) {
	case *Function:
		if in.depth >= maxCallDepth {
			return nil, in.errorf(n, "call stack exceeded (%d nested calls)", maxCallDepth)
		}
		in.depth++
		lit := fn.lit
		frame := in.newFrame(fn.env, lit.nlocals)
		for i, p := range lit.params {
			if i < len(args) {
				frame.declare(p, args[i])
			} else {
				frame.declare(p, Undefined)
			}
		}
		if lit.usesArgs {
			frame.declare("arguments", NewArray(slices.Clone(args)...))
		}
		err := in.exec(lit.body, frame)
		in.depth--
		in.releaseFrame(frame)
		if err == nil {
			return Undefined, nil
		}
		if _, ok := err.(returnSignal); ok {
			v := in.ret
			in.ret = nil
			return v, nil
		}
		return nil, err
	case *Builtin:
		return fn.fn(in, this, args)
	default:
		return nil, in.errorf(n, "%s is not a function", TypeOf(callee))
	}
}
