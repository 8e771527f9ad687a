package script

import (
	"fmt"
	"hash/maphash"
	"math"
	"strconv"
	"strings"
	"unsafe"

	"pogo/internal/msg"
)

// value is a PogoScript runtime value: nil (null), undefined, bool, float64,
// string, *object, *array, *function, or *builtin.
type value = any

// undefinedType is the type of the undefined singleton.
type undefinedType struct{}

// undefined is JavaScript's `undefined`.
var undefined = undefinedType{}

// entry is one key/value slot of a table.
type entry struct {
	key string
	val value
}

// linearMax is the largest table find searches by comparing keys one by one;
// a longer one gets a position index on its first lookup.
const linearMax = 8

// table is an insertion-ordered set of key/value entries: the properties of
// an object and the script's globals.
//
// Past linearMax entries find uses an index, built on its first lookup: an
// open-addressed hash table of positions in ents, mask+1 int32 slots from
// index on. Slot i holds position+1 of a key whose probe sequence (linear,
// from its hash) passes i, and 0 when free. Its size is a power of two; put
// keeps it at most half full, doubling it when it would be more, and remove,
// which moves the entries behind the hole, rebuilds it. A pointer and a mask
// rather than a slice keep an object — every message's view is one — within
// 48 bytes.
type table struct {
	ents  []entry
	index *int32 // nil until built
	mask  int
}

// tableSeed seeds every table's hash.
var tableSeed = maphash.MakeSeed()

// slots returns the index.
func (t *table) slots() []int32 { return unsafe.Slice(t.index, t.mask+1) }

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
		size := 16
		for size < 4*len(t.ents) {
			size *= 2
		}
		t.reindex(size)
	}
	slots := t.slots()
	for i := int(maphash.String(tableSeed, key)) & t.mask; ; i = (i + 1) & t.mask {
		p := slots[i]
		if p == 0 {
			return -1
		}
		if t.ents[p-1].key == key {
			return int(p - 1)
		}
	}
}

// reindex rebuilds the index at size slots.
func (t *table) reindex(size int) {
	if t.index != nil && t.mask+1 == size {
		clear(t.slots())
	} else {
		t.index, t.mask = &make([]int32, size)[0], size-1
	}
	for i := range t.ents {
		t.slot(i)
	}
}

// slot enters ents[i] in the index.
func (t *table) slot(i int) {
	slots := t.slots()
	j := int(maphash.String(tableSeed, t.ents[i].key)) & t.mask
	for slots[j] != 0 {
		j = (j + 1) & t.mask
	}
	slots[j] = int32(i + 1)
}

// get returns the value under key and whether there is one.
func (t *table) get(key string) (value, bool) {
	if i := t.find(key); i >= 0 {
		return t.ents[i].val, true
	}
	return nil, false
}

// put stores v under key: in place when the key exists, at the end otherwise.
func (t *table) put(key string, v value) {
	if i := t.find(key); i >= 0 {
		t.ents[i].val = v
		return
	}
	if t.ents == nil {
		t.ents = make([]entry, 0, 4)
	}
	t.ents = append(t.ents, entry{key, v})
	switch {
	case t.index == nil:
	case 2*len(t.ents) > t.mask+1:
		t.reindex(2 * (t.mask + 1))
	default:
		t.slot(len(t.ents) - 1)
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
		t.reindex(t.mask + 1)
	}
}

// object is a script object with insertion-ordered keys, which keeps for-in
// iteration deterministic across runs.
//
// An object made by fromMsg is a copy-on-write view of a message's encoding:
// while src is set, src is what the object holds and nothing has been
// written. Scalar properties of a small map are read straight from the bytes;
// the first access that needs more (a nested node, the key order, a lookup in
// a map past linearMax entries) fills ents from src in key order, nested
// nodes wrapped as views of their own, and the first write drops src.
type object struct {
	table
	src msg.Raw
}

// newObject returns an empty object.
func newObject() *object { return &object{} }

// viewing reports whether the object is a view not yet filled.
func (o *object) viewing() bool { return !o.src.IsZero() && o.ents == nil }

// fill builds a view's entries from its message; a no-op once done.
func (o *object) fill() {
	if !o.viewing() {
		return
	}
	o.ents = make([]entry, 0, o.src.Len())
	o.src.Range(func(k string, v msg.Value) {
		o.ents = append(o.ents, entry{k, fromMsg(v)})
	})
}

// own makes the entries the object's only content, ahead of a write.
func (o *object) own() {
	o.fill()
	o.src = msg.Raw{}
}

// clean reports whether the object is a view that still equals its message:
// nothing written to it or to any node reached through it.
func (o *object) clean() bool {
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

func cleanValue(v value) bool {
	switch x := v.(type) {
	case *object:
		return x.clean()
	case *array:
		return x.clean()
	default:
		return true
	}
}

// lookup returns a property and whether it exists.
func (o *object) lookup(key string) (value, bool) {
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

// set stores a property, preserving first-insertion order.
func (o *object) set(key string, v value) {
	o.own()
	o.put(key, v)
}

// delete removes a property.
func (o *object) delete(key string) {
	o.own()
	o.remove(key)
}

// keys returns the property names in insertion order (sorted order for the
// properties a message arrived with).
func (o *object) keys() []string {
	o.fill()
	return o.appendKeys(make([]string, 0, len(o.ents)))
}

// appendKeys appends the property names, in keys order, to dst.
func (o *object) appendKeys(dst []string) []string {
	o.fill()
	for i := range o.ents {
		dst = append(dst, o.ents[i].key)
	}
	return dst
}

// array is a script array. One made by fromMsg is a copy-on-write view like
// object's: elems is filled from src on the first access that needs it, and
// the first write drops src.
type array struct {
	elems []value
	src   msg.Raw
}

// newArray returns an array wrapping elems (not copied).
func newArray(elems ...value) *array { return &array{elems: elems} }

// viewing reports whether the array is a view not yet filled.
func (a *array) viewing() bool { return !a.src.IsZero() && a.elems == nil }

// fill builds a view's elements from its message; a no-op once done.
func (a *array) fill() {
	if !a.viewing() {
		return
	}
	a.elems = make([]value, 0, a.src.Len())
	// An array of records is the usual shape of a sensor message: the views
	// of all the elements that are maps come from one allocation.
	maps := 0
	a.src.Range(func(_ string, e msg.Value) {
		if r, ok := e.(msg.Raw); ok && r.IsMap() {
			maps++
		}
		a.elems = append(a.elems, e)
	})
	views := make([]object, maps)
	for i, e := range a.elems {
		if r, ok := e.(msg.Raw); ok && r.IsMap() {
			views[0].src = r
			a.elems[i] = &views[0]
			views = views[1:]
		} else {
			a.elems[i] = fromMsg(e)
		}
	}
}

// own makes elems the array's only content, ahead of a write.
func (a *array) own() {
	a.fill()
	a.src = msg.Raw{}
}

// clean is object.clean for arrays.
func (a *array) clean() bool {
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

// len returns the element count.
func (a *array) len() int {
	if a.viewing() {
		return a.src.Len()
	}
	return len(a.elems)
}

// at returns element i, or undefined out of range.
func (a *array) at(i int) value {
	if i < 0 || i >= a.len() {
		return undefined
	}
	a.fill()
	return a.elems[i]
}

// setAt stores element i, growing the array with undefined as needed.
func (a *array) setAt(i int, v value) {
	a.own()
	for len(a.elems) <= i {
		a.elems = append(a.elems, undefined)
	}
	a.elems[i] = v
}

// function is a script-defined function: compiled code and the frame of
// the enclosing function it closes over (nil when it closes over nothing).
type function struct {
	code *code
	env  *frame
}

// builtin is a host-provided function. this is the receiver for method-style
// calls (may be undefined).
type builtin struct {
	name string
	fn   func(in *interp, this value, args []value) (value, error)
	// text, when set, appends to dst the string form of what fn returns; a
	// + chain uses it to take the text without the string (see operand).
	text func(in *interp, dst []byte, args []value) ([]byte, error)
}

// typeName implements the typeof operator.
func typeName(v value) string {
	switch v.(type) {
	case undefinedType:
		return "undefined"
	case nil:
		return "object" // JS: typeof null === "object"
	case bool:
		return "boolean"
	case float64:
		return "number"
	case string:
		return "string"
	case *function, *builtin:
		return "function"
	default:
		return "object"
	}
}

// truthy implements JavaScript truthiness.
func truthy(v value) bool {
	switch x := v.(type) {
	case nil, undefinedType:
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

// toString converts a value to its string form (JS semantics, approximately).
func toString(v value) string {
	switch x := v.(type) {
	case nil:
		return "null"
	case undefinedType:
		return "undefined"
	case bool:
		return strconv.FormatBool(x)
	case float64:
		return formatNumber(x)
	case string:
		return x
	case *array:
		x.fill()
		parts := make([]string, len(x.elems))
		for i, e := range x.elems {
			if e == nil || e == value(undefined) {
				parts[i] = ""
			} else {
				parts[i] = toString(e)
			}
		}
		return strings.Join(parts, ",")
	case *object:
		return "[object Object]"
	case *function:
		return "function " + x.code.lit.name + "() {...}"
	case *builtin:
		return "function " + x.name + "() {[native]}"
	default:
		return fmt.Sprintf("%v", v)
	}
}

// formatNumber renders a float64 as JavaScript does (msg.AppendNumber).
func formatNumber(f float64) string {
	var b [32]byte
	return string(appendNumber(b[:0], f))
}

// appendNumber appends formatNumber(f) to b.
func appendNumber(b []byte, f float64) []byte { return msg.AppendNumber(b, f) }

// appendString appends toString(v) to b, formatting scalars in place.
func appendString(b []byte, v value) []byte {
	switch x := v.(type) {
	case string:
		return append(b, x...)
	case float64:
		return appendNumber(b, x)
	case bool:
		return strconv.AppendBool(b, x)
	default:
		return append(b, toString(v)...)
	}
}

// toNumber coerces a value to a number (JS-ish; objects give NaN).
func toNumber(v value) float64 {
	switch x := v.(type) {
	case nil:
		return 0
	case undefinedType:
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

var smallNum = func() (t [smallNums]value) {
	for i := range t {
		t[i] = float64(i)
	}
	return t
}()

// boxNum converts a number the evaluator produced into a value. Loop
// counters, lengths and indexes — non-negative integers below smallNums —
// share one boxed copy each; any other number comes from msg's cache of
// recently boxed numbers, which a handler that computes the same values
// message after message (a normalised signal strength) mostly hits.
func boxNum(f float64) value {
	if f >= 0 && f < smallNums {
		// -0 is >= 0 too, and must stay -0: 1/-0 is -Infinity.
		if i := int(f); float64(i) == f && (i != 0 || !math.Signbit(f)) {
			return smallNum[i]
		}
	}
	return msg.BoxFloat(f)
}

// fromMsg brings a msg-domain value into the script domain. Scalars are the
// same Go values in both; an encoded map or array becomes a copy-on-write
// view of its bytes (see object), keys in sorted order. A tree (a Map or a
// []Value) is encoded first, so the script reads what a subscriber of it
// would: NaN and infinities as null, invalid UTF-8 repaired. A value outside
// the message domain is undefined.
func fromMsg(v msg.Value) value {
	switch x := v.(type) {
	case nil:
		return nil
	case bool, float64, string:
		return x
	case msg.Raw:
		switch {
		case x.IsMap():
			return &object{src: x}
		case x.IsArray():
			return &array{src: x}
		}
		return fromMsg(x.Value())
	case msg.Map, []msg.Value:
		r, err := msg.Encode(x)
		if err != nil {
			return undefined
		}
		return fromMsg(r)
	default:
		return undefined
	}
}

// looseEquals implements the == operator for the supported value domain.
func looseEquals(a, b value) bool {
	// null == undefined (and themselves).
	aNil := a == nil || a == value(undefined)
	bNil := b == nil || b == value(undefined)
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
			return x == toNumber(y)
		case bool:
			return x == toNumber(y)
		}
		return false
	case string:
		switch y := b.(type) {
		case string:
			return x == y
		case float64, bool:
			return toNumber(x) == toNumber(y)
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
func strictEquals(a, b value) bool {
	switch x := a.(type) {
	case nil:
		return b == nil
	case undefinedType:
		_, ok := b.(undefinedType)
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
