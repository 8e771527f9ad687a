package script

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"

	"pogo/internal/msg"
)

// maxNesting is how deep a value may nest objects and arrays and still
// become a message; a deeper one is most likely a cycle.
const maxNesting = 64

var (
	errNesting  = errors.New("script: value nesting too deep (cycle?)")
	errFunction = errors.New("script: cannot serialize a function")
)

// encoder writes script values in the message's canonical encoding, straight
// from the objects and arrays, building no tree. It is the one way a script
// value becomes a message: publish, freeze, subscribe's parameters,
// Script.Call's result, json() and JSON.stringify. The rules are msg's:
// keys in order, no two the same once invalid UTF-8 is repaired; numbers,
// strings and nulls as msg.AppendBinary writes them. Beyond them, what a
// script value is as a message: functions are left out of objects and null
// in arrays, as JSON.stringify has it, and undefined is null.
type encoder struct {
	buf []byte // the encoding being written, reused from call to call
}

// toMsg converts a script value into the msg domain for publication: a
// scalar as itself (undefined as nil), an object or array as its encoding in
// a buffer of its own, and a view nothing was written to as the message it
// views, so a script that republishes what it received hands the host the
// same bytes. forwarded reports such a view, handed on rather than encoded
// for this call.
func (e *encoder) toMsg(v value) (m msg.Value, forwarded bool, err error) {
	switch x := v.(type) {
	case nil, undefinedType:
		return nil, false, nil
	case bool, float64, string:
		return x, false, nil
	}
	r, err := e.encode(v)
	if err != nil {
		return nil, false, err
	}
	if !r.IsZero() {
		return r, true, nil
	}
	r, err = msg.ParseRaw(bytes.Clone(e.buf))
	if err != nil {
		return nil, false, err
	}
	return r, false, nil
}

// encode writes v's encoding to e.buf, unless v is a view nothing was
// written to: then it writes nothing and returns the message v views.
func (e *encoder) encode(v value) (msg.Raw, error) {
	if r, ok := cleanView(v); ok {
		return r, nil
	}
	e.buf = e.buf[:0]
	return msg.Raw{}, e.value(v, 0)
}

// cleanView returns the message v views when v is an object or array
// nothing was written to.
func cleanView(v value) (msg.Raw, bool) {
	switch x := v.(type) {
	case *object:
		return x.src, x.clean()
	case *array:
		return x.src, x.clean()
	}
	return msg.Raw{}, false
}

// value appends v, nested depth objects and arrays deep.
func (e *encoder) value(v value, depth int) error {
	if depth > maxNesting {
		return errNesting
	}
	if r, ok := cleanView(v); ok {
		e.buf = append(e.buf, r.Bytes()...)
		return nil
	}
	switch x := v.(type) {
	case *object:
		return e.object(x, depth)
	case *array:
		return e.array(x, depth)
	case undefinedType:
		v = nil
	case *function, *builtin:
		return errFunction
	}
	b, err := msg.AppendBinary(e.buf, v)
	if err != nil {
		return fmt.Errorf("script: cannot serialize %T", v)
	}
	e.buf = b
	return nil
}

// sortKey is an object entry in the order of its key as encoded.
type sortKey struct {
	key string // msg.CanonicalKey of the entry's key
	ent int
}

func (e *encoder) object(o *object, depth int) error {
	// Sorted on the stack: an object of up to len(stack) keys costs nothing
	// to order.
	var stack [32]sortKey
	keys := stack[:0]
	for i := range o.ents {
		switch o.ents[i].val.(type) {
		case *function, *builtin:
			continue
		}
		keys = append(keys, sortKey{msg.CanonicalKey(o.ents[i].key), i})
	}
	slices.SortFunc(keys, func(a, b sortKey) int { return strings.Compare(a.key, b.key) })
	e.buf = msg.AppendMapHeader(e.buf, len(keys))
	for j, k := range keys {
		if j > 0 && k.key == keys[j-1].key {
			return fmt.Errorf("%w: keys equal after UTF-8 repair: %q", msg.ErrUnsupportedValue, k.key)
		}
		e.buf = msg.AppendKey(e.buf, k.key)
		if err := e.value(o.ents[k.ent].val, depth+1); err != nil {
			return err
		}
	}
	return nil
}

func (e *encoder) array(a *array, depth int) error {
	e.buf = msg.AppendArrayHeader(e.buf, len(a.elems))
	for _, el := range a.elems {
		switch el.(type) {
		case *function, *builtin:
			e.buf, _ = msg.AppendBinary(e.buf, nil)
			continue
		}
		if err := e.value(el, depth+1); err != nil {
			return err
		}
	}
	return nil
}
