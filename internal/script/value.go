package script

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"pogo/internal/msg"
)

// Value is a PogoScript runtime value: nil (null), Undefined, bool, float64,
// string, *Object, *Array, *Function, or *Builtin.
type Value = any

// UndefinedType is the type of the Undefined singleton.
type UndefinedType struct{}

// Undefined is JavaScript's `undefined`.
var Undefined = UndefinedType{}

// entry is one key/value slot of a table.
type entry struct {
	key string
	val Value
}

// linearMax is the largest table find searches by comparing keys one by one;
// a longer one gets a position index on its first lookup.
const linearMax = 8

// table is an insertion-ordered set of key/value entries: the properties of
// an Object and the bindings of a scope.
type table struct {
	ents  []entry
	index map[string]int // key → position in ents; nil until find builds it
}

// find returns the position of key in ents, or -1.
func (t *table) find(key string) int {
	if len(t.ents) <= linearMax {
		for i := range t.ents {
			if t.ents[i].key == key {
				return i
			}
		}
		return -1
	}
	if t.index == nil {
		t.index = make(map[string]int, 2*len(t.ents))
		for i := range t.ents {
			t.index[t.ents[i].key] = i
		}
	}
	if i, ok := t.index[key]; ok {
		return i
	}
	return -1
}

// put stores v under key: in place when the key exists, at the end otherwise.
func (t *table) put(key string, v Value) {
	if i := t.find(key); i >= 0 {
		t.ents[i].val = v
		return
	}
	if t.ents == nil {
		t.ents = make([]entry, 0, 4)
	}
	t.ents = append(t.ents, entry{key, v})
	if t.index != nil {
		t.index[key] = len(t.ents) - 1
	}
}

// remove deletes key, keeping the order of the other entries.
func (t *table) remove(key string) {
	i := t.find(key)
	if i < 0 {
		return
	}
	last := len(t.ents) - 1
	copy(t.ents[i:], t.ents[i+1:])
	t.ents[last] = entry{}
	t.ents = t.ents[:last]
	if t.index != nil {
		delete(t.index, key)
		for j := i; j < last; j++ {
			t.index[t.ents[j].key] = j
		}
	}
}

// Object is a script object with insertion-ordered keys, which keeps for-in
// iteration deterministic across runs.
//
// An object made by FromMsg is a copy-on-write view of a message's encoding:
// while src is set, src is what the object holds and nothing has been
// written. Scalar properties of a small map are read straight from the bytes;
// the first access that needs more (a nested node, the key order, a lookup in
// a map past linearMax entries) fills ents from src in key order, nested
// nodes wrapped as views of their own, and the first write drops src.
type Object struct {
	table
	src msg.Raw
}

// NewObject returns an empty object.
func NewObject() *Object { return &Object{} }

// viewing reports whether the object is a view not yet filled.
func (o *Object) viewing() bool { return !o.src.IsZero() && o.ents == nil }

// fill builds a view's entries from its message; a no-op once done.
func (o *Object) fill() {
	if !o.viewing() {
		return
	}
	o.ents = make([]entry, 0, o.src.Len())
	o.src.Range(func(k string, v msg.Value) {
		o.ents = append(o.ents, entry{k, FromMsg(v)})
	})
}

// own makes the entries the object's only content, ahead of a write.
func (o *Object) own() {
	o.fill()
	o.src = msg.Raw{}
}

// clean reports whether the object is a view that still equals its message:
// nothing written to it or to any node reached through it.
func (o *Object) clean() bool {
	if o.src.IsZero() {
		return false
	}
	for i := range o.ents {
		if !cleanValue(o.ents[i].val) {
			return false
		}
	}
	return true
}

func cleanValue(v Value) bool {
	switch x := v.(type) {
	case *Object:
		return x.clean()
	case *Array:
		return x.clean()
	default:
		return true
	}
}

// Get returns a property and whether it exists.
func (o *Object) Get(key string) (Value, bool) {
	if o.viewing() && o.src.Len() <= linearMax {
		v, ok := o.src.Field(key)
		if !ok {
			return nil, false
		}
		switch v.(type) {
		case nil, bool, float64, string:
			return v, true
		}
	}
	// A nested node is wrapped once, so that m.aps === m.aps; a wide map
	// gets the table's index.
	o.fill()
	if i := o.find(key); i >= 0 {
		return o.ents[i].val, true
	}
	return nil, false
}

// Set stores a property, preserving first-insertion order.
func (o *Object) Set(key string, v Value) {
	o.own()
	o.put(key, v)
}

// Delete removes a property.
func (o *Object) Delete(key string) {
	o.own()
	o.remove(key)
}

// Keys returns the property names in insertion order (sorted order for the
// properties a message arrived with).
func (o *Object) Keys() []string {
	o.fill()
	out := make([]string, len(o.ents))
	for i := range o.ents {
		out[i] = o.ents[i].key
	}
	return out
}

// Len returns the number of properties.
func (o *Object) Len() int {
	if o.viewing() {
		return o.src.Len()
	}
	return len(o.ents)
}

// Array is a script array. One made by FromMsg is a copy-on-write view like
// Object's: elems is filled from src on the first access that needs it, and
// the first write drops src.
type Array struct {
	elems []Value
	src   msg.Raw
}

// NewArray returns an array wrapping elems (not copied).
func NewArray(elems ...Value) *Array { return &Array{elems: elems} }

// viewing reports whether the array is a view not yet filled.
func (a *Array) viewing() bool { return !a.src.IsZero() && a.elems == nil }

// fill builds a view's elements from its message; a no-op once done.
func (a *Array) fill() {
	if !a.viewing() {
		return
	}
	a.elems = make([]Value, 0, a.src.Len())
	// An array of records is the usual shape of a sensor message: the views
	// of all the elements that are maps come from one allocation.
	maps := 0
	a.src.Range(func(_ string, e msg.Value) {
		if r, ok := e.(msg.Raw); ok && r.IsMap() {
			maps++
		}
		a.elems = append(a.elems, e)
	})
	views := make([]Object, maps)
	for i, e := range a.elems {
		if r, ok := e.(msg.Raw); ok && r.IsMap() {
			views[0].src = r
			a.elems[i] = &views[0]
			views = views[1:]
		} else {
			a.elems[i] = FromMsg(e)
		}
	}
}

// own makes elems the array's only content, ahead of a write.
func (a *Array) own() {
	a.fill()
	a.src = msg.Raw{}
}

// clean is Object.clean for arrays.
func (a *Array) clean() bool {
	if a.src.IsZero() {
		return false
	}
	for _, e := range a.elems {
		if !cleanValue(e) {
			return false
		}
	}
	return true
}

// Len returns the element count.
func (a *Array) Len() int {
	if a.viewing() {
		return a.src.Len()
	}
	return len(a.elems)
}

// At returns element i, or Undefined out of range.
func (a *Array) At(i int) Value {
	if i < 0 || i >= a.Len() {
		return Undefined
	}
	a.fill()
	return a.elems[i]
}

// SetAt stores element i, growing the array with Undefined as needed.
func (a *Array) SetAt(i int, v Value) {
	a.own()
	for len(a.elems) <= i {
		a.elems = append(a.elems, Undefined)
	}
	a.elems[i] = v
}

// Function is a script-defined function closing over its environment.
type Function struct {
	lit *funcLit
	env *scope
}

// Builtin is a host-provided function. this is the receiver for method-style
// calls (may be Undefined).
type Builtin struct {
	name string
	fn   func(in *interp, this Value, args []Value) (Value, error)
	// text, when set, appends to dst the string form of what fn returns; a
	// + chain uses it to take the text without the string (see operand).
	text func(in *interp, dst []byte, args []Value) ([]byte, error)
}

// TypeOf implements the typeof operator.
func TypeOf(v Value) string {
	switch v.(type) {
	case UndefinedType:
		return "undefined"
	case nil:
		return "object" // JS: typeof null === "object"
	case bool:
		return "boolean"
	case float64:
		return "number"
	case string:
		return "string"
	case *Function, *Builtin:
		return "function"
	default:
		return "object"
	}
}

// Truthy implements JavaScript truthiness.
func Truthy(v Value) bool {
	switch x := v.(type) {
	case nil, UndefinedType:
		return false
	case bool:
		return x
	case float64:
		return x != 0 && !math.IsNaN(x)
	case string:
		return x != ""
	default:
		return true
	}
}

// ToString converts a value to its string form (JS semantics, approximately).
func ToString(v Value) string {
	switch x := v.(type) {
	case nil:
		return "null"
	case UndefinedType:
		return "undefined"
	case bool:
		return strconv.FormatBool(x)
	case float64:
		return formatNumber(x)
	case string:
		return x
	case *Array:
		x.fill()
		parts := make([]string, len(x.elems))
		for i, e := range x.elems {
			if e == nil || e == Value(Undefined) {
				parts[i] = ""
			} else {
				parts[i] = ToString(e)
			}
		}
		return strings.Join(parts, ",")
	case *Object:
		return "[object Object]"
	case *Function:
		return "function " + x.lit.name + "() {...}"
	case *Builtin:
		return "function " + x.name + "() {[native]}"
	default:
		return fmt.Sprintf("%v", v)
	}
}

// formatNumber renders a float64 the way JavaScript does for common cases.
func formatNumber(f float64) string {
	var b [32]byte
	return string(appendNumber(b[:0], f))
}

// appendNumber appends formatNumber(f) to b.
func appendNumber(b []byte, f float64) []byte {
	switch {
	case math.IsNaN(f):
		return append(b, "NaN"...)
	case math.IsInf(f, 1):
		return append(b, "Infinity"...)
	case math.IsInf(f, -1):
		return append(b, "-Infinity"...)
	case f == math.Trunc(f) && math.Abs(f) < 1e21:
		return strconv.AppendFloat(b, f, 'f', -1, 64)
	default:
		return strconv.AppendFloat(b, f, 'g', -1, 64)
	}
}

// appendString appends ToString(v) to b, formatting scalars in place.
func appendString(b []byte, v Value) []byte {
	switch x := v.(type) {
	case string:
		return append(b, x...)
	case float64:
		return appendNumber(b, x)
	case bool:
		return strconv.AppendBool(b, x)
	default:
		return append(b, ToString(v)...)
	}
}

// ToNumber coerces a value to a number (JS-ish; objects give NaN).
func ToNumber(v Value) float64 {
	switch x := v.(type) {
	case nil:
		return 0
	case UndefinedType:
		return math.NaN()
	case bool:
		if x {
			return 1
		}
		return 0
	case float64:
		return x
	case string:
		s := strings.TrimSpace(x)
		if s == "" {
			return 0
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return math.NaN()
		}
		return f
	default:
		return math.NaN()
	}
}

// smallNums bounds the numbers boxNum serves from a shared table.
const smallNums = 1024

var smallNum = func() (t [smallNums]Value) {
	for i := range t {
		t[i] = float64(i)
	}
	return t
}()

// boxNum converts a number the evaluator produced into a Value. Loop
// counters, lengths and indexes — non-negative integers below smallNums —
// share one boxed copy each instead of allocating a new one every time.
func boxNum(f float64) Value {
	if f >= 0 && f < smallNums {
		// -0 is >= 0 too, and must stay -0: 1/-0 is -Infinity.
		if i := int(f); float64(i) == f && (i != 0 || !math.Signbit(f)) {
			return smallNum[i]
		}
	}
	return f
}

// ToMsg converts a script value into the msg domain for publication.
// Function-valued properties are skipped (like JSON.stringify). Undefined
// becomes nil. An unwritten view converts to the message it views, so a
// script that republishes what it received hands the host the same bytes,
// and a tree built here may hold such messages as nodes. Nothing returned is
// shared with the script: the caller may keep it.
func ToMsg(v Value) (msg.Value, error) {
	return toMsgDepth(v, 0)
}

func toMsgDepth(v Value, depth int) (msg.Value, error) {
	if depth > 64 {
		return nil, fmt.Errorf("script: value nesting too deep (cycle?)")
	}
	switch x := v.(type) {
	case nil, UndefinedType:
		return nil, nil
	case bool, float64, string:
		return x, nil
	case *Array:
		if x.clean() {
			return x.src, nil
		}
		out := make([]msg.Value, 0, len(x.elems))
		for _, e := range x.elems {
			switch e.(type) {
			case *Function, *Builtin:
				out = append(out, nil)
				continue
			}
			m, err := toMsgDepth(e, depth+1)
			if err != nil {
				return nil, err
			}
			out = append(out, m)
		}
		return out, nil
	case *Object:
		if x.clean() {
			return x.src, nil
		}
		out := make(msg.Map, len(x.ents))
		for i := range x.ents {
			e := x.ents[i].val
			switch e.(type) {
			case *Function, *Builtin:
				continue
			}
			m, err := toMsgDepth(e, depth+1)
			if err != nil {
				return nil, err
			}
			out[x.ents[i].key] = m
		}
		return out, nil
	case *Function, *Builtin:
		return nil, fmt.Errorf("script: cannot serialize a function")
	default:
		return nil, fmt.Errorf("script: cannot serialize %T", v)
	}
}

// FromMsg brings a msg-domain value into the script domain. Scalars are the
// same Go values in both; an encoded map or array becomes a copy-on-write
// view of its bytes (see Object), keys in sorted order. A tree (a Map or a
// []Value) is encoded first, so the script reads what a subscriber of it
// would: NaN and infinities as null, invalid UTF-8 repaired. A value outside
// the message domain is undefined.
func FromMsg(v msg.Value) Value {
	switch x := v.(type) {
	case nil:
		return nil
	case bool, float64, string:
		return x
	case msg.Raw:
		switch {
		case x.IsMap():
			return &Object{src: x}
		case x.IsArray():
			return &Array{src: x}
		}
		return FromMsg(x.Value())
	case msg.Map, []msg.Value:
		r, err := msg.Encode(x)
		if err != nil {
			return Undefined
		}
		return FromMsg(r)
	default:
		return Undefined
	}
}

// looseEquals implements the == operator for the supported value domain.
func looseEquals(a, b Value) bool {
	// null == undefined (and themselves).
	aNil := a == nil || a == Value(Undefined)
	bNil := b == nil || b == Value(Undefined)
	if aNil || bNil {
		return aNil && bNil
	}
	switch x := a.(type) {
	case bool:
		return looseEquals(boolToNum(x), b)
	case float64:
		switch y := b.(type) {
		case float64:
			return x == y
		case string:
			return x == ToNumber(y)
		case bool:
			return x == ToNumber(y)
		}
		return false
	case string:
		switch y := b.(type) {
		case string:
			return x == y
		case float64, bool:
			return ToNumber(x) == ToNumber(y)
		}
		return false
	default:
		if _, ok := b.(bool); ok {
			return looseEquals(a, boolToNum(b.(bool)))
		}
		return a == b // reference equality for objects/arrays/functions
	}
}

func boolToNum(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// strictEquals implements ===.
func strictEquals(a, b Value) bool {
	switch x := a.(type) {
	case nil:
		return b == nil
	case UndefinedType:
		_, ok := b.(UndefinedType)
		return ok
	case bool:
		y, ok := b.(bool)
		return ok && x == y
	case float64:
		y, ok := b.(float64)
		return ok && x == y
	case string:
		y, ok := b.(string)
		return ok && x == y
	default:
		return a == b // reference equality
	}
}
