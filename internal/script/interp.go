package script

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// RuntimeError reports a failure during script execution.
type RuntimeError struct {
	Script string
	Line   int
	Msg    string
	// Thrown holds the value of a script `throw` that escaped, or nil.
	Thrown value
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("%s:%d: %s", e.Script, e.Line, e.Msg)
}

// errBudget is wrapped into the RuntimeError produced when a script call
// exceeds its step budget (the paper's 100 ms call timeout, §4.5).
var errBudget = errors.New("script: execution budget exceeded")

// completion is how a statement finished: normally, or by a break, continue
// or return that the enclosing loop, switch or call takes. The value of a
// return travels in interp.ret, so that a return allocates nothing.
type completion uint8

const (
	normal completion = iota
	breakDone
	continueDone
	returnDone
)

// escapeMsg is the error of a break, continue or return that leaves the
// function (or the script body) it appears in.
var escapeMsg = [...]string{
	breakDone:    "break outside loop",
	continueDone: "continue outside loop",
	returnDone:   "return outside function",
}

// throwSignal is a script `throw` on its way to a catch.
type throwSignal struct {
	value value
	line  int
}

func (t throwSignal) Error() string { return "uncaught: " + toString(t.value) }

// maxCallDepth bounds script-level call nesting so runaway recursion gets a
// clean RuntimeError instead of exhausting the Go stack.
const maxCallDepth = 2000

// frame holds the variables of one function call (see compile.go): vals has
// a slot per name the function binds, up is the frame of the closest
// enclosing function whose frames outlive their calls.
type frame struct {
	vals []value
	up   *frame
}

// unbound is what a slot holds until its name is declared: a read or write
// of the name passes it by for the next enclosing binding.
type unbound struct{}

func isUnbound(v value) bool {
	_, ok := v.(unbound)
	return ok
}

// interp runs compiled code under a step budget. A Script keeps one for all
// its entries, which run one at a time, so what a call needs only while it
// runs is taken from the interpreter and handed back.
type interp struct {
	name    string
	globals *table
	steps   int // remaining budget for the current entry
	depth   int // current script call nesting

	ret    value    // the value a return carries
	args   []value  // argument stack: a call's arguments are its top slots
	frames []*frame // frames of finished calls, free for the next
	buf    []byte   // json() output before it becomes a string
	cat    []byte   // the text of the + chains being evaluated, innermost last
	keys   []string // the keys of the for-in walks in progress, innermost last
	enc    encoder  // what becomes a message or JSON text, encoded
}

// begin readies the interpreter for one entry into script code.
func (in *interp) begin(budget int) {
	in.steps, in.depth, in.ret = budget, 0, nil
	// An entry that failed may have left arguments behind.
	clear(in.args)
	in.args = in.args[:0]
	in.cat = in.cat[:0]
	clear(in.keys)
	in.keys = in.keys[:0]
}

// newFrame returns the frame of a call to c, every slot unbound. A frame
// that closures may keep is made for the call; any other comes from the
// interpreter's free list.
func (in *interp) newFrame(c *code, up *frame) *frame {
	var f *frame
	if n := len(in.frames); n > 0 && !c.captured {
		f = in.frames[n-1]
		in.frames = in.frames[:n-1]
		if cap(f.vals) >= c.nslots {
			f.vals = f.vals[:c.nslots]
		} else {
			f.vals = make([]value, c.nslots)
		}
	} else {
		f = &frame{vals: make([]value, c.nslots)}
	}
	f.up = up
	for i := range f.vals {
		f.vals[i] = unbound{}
	}
	return f
}

// releaseFrame takes back the frame of a finished call to c, unless closures
// may still refer to it.
func (in *interp) releaseFrame(c *code, f *frame) {
	if c.captured {
		return
	}
	for i := range f.vals {
		f.vals[i] = nil
	}
	f.up = nil
	in.frames = append(in.frames, f)
}

// popArgs drops the argument stack's slots from base up.
func (in *interp) popArgs(base int) {
	for i := base; i < len(in.args); i++ {
		in.args[i] = nil
	}
	in.args = in.args[:base]
}

func (in *interp) errorf(line int, format string, args ...any) error {
	return &RuntimeError{Script: in.name, Line: line, Msg: fmt.Sprintf(format, args...)}
}

// charge spends one budget step: compiled code charges one per statement or
// expression node it executes.
func (in *interp) charge(line int) error {
	if in.spend() {
		return in.overBudget(line)
	}
	return nil
}

// spend is charge for callers that make the error themselves: it takes a
// step and reports whether the budget is exceeded.
func (in *interp) spend() bool {
	in.steps--
	return in.steps < 0
}

// overBudget is the error of the node whose step exceeded the budget.
func (in *interp) overBudget(line int) error {
	return &RuntimeError{Script: in.name, Line: line, Msg: errBudget.Error()}
}

// lookup returns the value name holds, seen from frame fr, and whether it is
// bound at all.
func (in *interp) lookup(n *name, fr *frame) (value, bool) {
	for _, l := range n.locals {
		f := fr
		for h := l.hops; h > 0; h-- {
			f = f.up
		}
		if v := f.vals[l.slot]; !isUnbound(v) {
			return v, true
		}
	}
	return in.global(n)
}

// global reads name from the global table. The position of the first hit is
// kept: global entries are never removed, so it stays right. A miss is not
// kept, since a later assignment may make the name.
func (in *interp) global(n *name) (value, bool) {
	if n.gpos > 0 {
		return in.globals.ents[n.gpos-1].val, true
	}
	if i := in.globals.find(n.id); i >= 0 {
		n.gpos = i + 1
		return in.globals.ents[i].val, true
	}
	return nil, false
}

// assign stores v in the binding name refers to from fr: the innermost
// bound local, else the global, which is made when missing (sloppy-mode
// JavaScript).
func (in *interp) assign(n *name, fr *frame, v value) {
	for _, l := range n.locals {
		f := fr
		for h := l.hops; h > 0; h-- {
			f = f.up
		}
		if !isUnbound(f.vals[l.slot]) {
			f.vals[l.slot] = v
			return
		}
	}
	in.setGlobal(n, v)
}

// setGlobal stores v under name in the global table.
func (in *interp) setGlobal(n *name, v value) {
	g := in.globals
	if n.gpos == 0 {
		i := g.find(n.id)
		if i < 0 {
			g.put(n.id, v)
			n.gpos = len(g.ents)
			return
		}
		n.gpos = i + 1
	}
	g.ents[n.gpos-1].val = v
}

// invoke calls a script or builtin function value. args belongs to the caller
// again once invoke returns: a callee that keeps the arguments copies them.
func (in *interp) invoke(line int, callee, this value, args []value) (value, error) {
	switch fn := callee.(type) {
	case *function:
		return in.call(line, fn, args)
	case *builtin:
		return fn.fn(in, this, args)
	default:
		return nil, in.errorf(line, "%s is not a function", typeName(callee))
	}
}

// call runs a script function in a frame of its own.
func (in *interp) call(line int, fn *function, args []value) (value, error) {
	if in.depth >= maxCallDepth {
		return nil, in.errorf(line, "call stack exceeded (%d nested calls)", maxCallDepth)
	}
	in.depth++
	c := fn.code
	fr := in.newFrame(c, fn.env)
	for i, slot := range c.params {
		if i < len(args) {
			fr.vals[slot] = args[i]
		} else {
			fr.vals[slot] = undefined
		}
	}
	if c.args >= 0 {
		fr.vals[c.args] = newArray(slices.Clone(args)...)
	}
	done, err := c.body(in, fr)
	in.depth--
	in.releaseFrame(c, fr)
	switch {
	case err != nil:
		return nil, err
	case done == returnDone:
		v := in.ret
		in.ret = nil
		return v, nil
	case done != normal: // a break or continue outside any loop of fn
		return nil, in.errorf(line, "%s", escapeMsg[done])
	}
	return undefined, nil
}

// element reads obj[key]: an array's element or a string's byte at a
// numeric key, any other property by the key's string form. A read and a
// call through an index both go through it.
func (in *interp) element(line int, obj, key value) (value, error) {
	if kf, ok := key.(float64); ok {
		switch o := obj.(type) {
		case *array:
			return o.at(int(kf)), nil
		case string:
			if i := int(kf); i >= 0 && i < len(o) {
				return string(o[i]), nil
			}
			return undefined, nil
		}
	}
	return in.getProperty(line, obj, toString(key))
}

// setElement stores obj[key] = v.
func (in *interp) setElement(line int, obj, key, v value) error {
	if arr, ok := obj.(*array); ok {
		if kf, ok := key.(float64); ok {
			if kf < 0 || kf != math.Trunc(kf) {
				return in.errorf(line, "bad array index %v", kf)
			}
			arr.setAt(int(kf), v)
			return nil
		}
	}
	return in.setProperty(line, obj, toString(key), v)
}

func (in *interp) setProperty(line int, obj value, name string, v value) error {
	switch o := obj.(type) {
	case *object:
		o.set(name, v)
		return nil
	case *array:
		if name == "length" {
			want := int(toNumber(v))
			if want < 0 {
				return in.errorf(line, "bad length %v", v)
			}
			o.own()
			for len(o.elems) > want {
				o.elems = o.elems[:len(o.elems)-1]
			}
			for len(o.elems) < want {
				o.elems = append(o.elems, undefined)
			}
			return nil
		}
		return in.errorf(line, "cannot set %q on array", name)
	default:
		return in.errorf(line, "cannot set property %q on %s", name, typeName(obj))
	}
}

// binop is a binary operator.
type binop uint8

const (
	opComma binop = iota
	opAdd
	opSub
	opMul
	opDiv
	opMod
	opEq
	opNe
	opStrictEq
	opStrictNe
	opLt
	opGt
	opLe
	opGe
)

var binops = map[string]binop{
	",": opComma, "+": opAdd, "-": opSub, "*": opMul, "/": opDiv, "%": opMod,
	"==": opEq, "!=": opNe, "===": opStrictEq, "!==": opStrictNe,
	"<": opLt, ">": opGt, "<=": opLe, ">=": opGe,
}

// numeric applies op to two numbers: applyBinary's result for them, without
// its conversions.
func numeric(op binop, l, r float64) value {
	switch op {
	case opComma:
		return r
	case opAdd:
		return boxNum(l + r)
	case opSub:
		return boxNum(l - r)
	case opMul:
		return boxNum(l * r)
	case opDiv:
		return boxNum(l / r)
	case opMod:
		return boxNum(math.Mod(l, r))
	case opEq, opStrictEq:
		return l == r
	case opNe, opStrictNe:
		return l != r
	case opLt:
		return l < r
	case opGt:
		return l > r
	case opLe:
		return l <= r
	default:
		return l >= r
	}
}

func (in *interp) applyBinary(op binop, left, right value) value {
	switch op {
	case opComma:
		return right
	case opAdd:
		if isText(left) || isText(right) {
			return in.concat(left, right)
		}
	case opEq:
		return looseEquals(left, right)
	case opNe:
		return !looseEquals(left, right)
	case opStrictEq:
		return strictEquals(left, right)
	case opStrictNe:
		return !strictEquals(left, right)
	case opLt, opGt, opLe, opGe:
		if ls, ok := left.(string); ok {
			if rs, ok := right.(string); ok {
				switch op {
				case opLt:
					return ls < rs
				case opGt:
					return ls > rs
				case opLe:
					return ls <= rs
				default:
					return ls >= rs
				}
			}
		}
	}
	return numeric(op, toNumber(left), toNumber(right))
}

func isComposite(v value) bool {
	switch v.(type) {
	case *object, *array, *function, *builtin:
		return true
	default:
		return false
	}
}

// isText reports whether v makes + concatenate: a string or a composite.
func isText(v value) bool {
	_, s := v.(string)
	return s || isComposite(v)
}

// A chain is a + and the + nodes down its left side, evaluated as one: a +
// b + c parses as (a + b) + c; a lone + is the chain of one in concat. Every
// node is charged and every operand evaluated in the order one + at a time
// would, and each + decides between addition and concatenation as
// applyBinary does, on the same operands: the sum stays a number until a
// string or composite operand turns the chain into text. From then on each
// operand's string form goes into in.cat as soon as the operand is
// evaluated, and the chain's result is made once, at its exact length.
// Chains nested in operands use in.cat beyond this chain's share and cut it
// back when done.
type chain struct {
	left    value   // the first operand, until the chain is numeric or text
	sum     float64 // the value so far, once numeric
	numeric bool
	text    bool  // the value so far is the string in.cat[base:]
	base    int   // where the chain's text starts in in.cat
	pieces  int   // non-empty operand strings in the text
	only    value // the text's one piece, when that is a string operand
}

// wroteText is what a call in a text chain returns when its builtin wrote
// its text into in.cat itself. It never reaches script code.
type wroteText struct{}

// concat is a lone + whose operands make text (and +=): a chain of one.
func (in *interp) concat(left, right value) value {
	c := chain{left: left, base: len(in.cat)}
	in.plus(&c, right)
	v := in.chainValue(&c)
	in.cat = in.cat[:c.base]
	return v
}

// chainValue is what an evaluated chain comes to.
func (in *interp) chainValue(c *chain) value {
	switch {
	case !c.text:
		return boxNum(c.sum)
	case c.pieces == 1 && c.only != nil:
		return c.only // the operand itself: nothing to copy
	default:
		return string(in.cat[c.base:])
	}
}

// plus applies the chain's next + to its right operand.
func (in *interp) plus(c *chain, right value) {
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
			c.sum, c.numeric = toNumber(c.left), true
		}
		c.sum += toNumber(right)
	}
}

// appendPiece appends v's string form to the chain's text.
func (in *interp) appendPiece(c *chain, v value) {
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
