package script

import (
	"math"
	"math/rand"
	"sort"
	"strings"

	"pogo/internal/msg"
)

// getProperty resolves obj.name for every supported receiver type.
func (in *interp) getProperty(n node, obj Value, name string) (Value, error) {
	switch o := obj.(type) {
	case *Object:
		if v, ok := o.Get(name); ok {
			return v, nil
		}
		if name == "hasOwnProperty" {
			return hasOwnProperty, nil
		}
		return Undefined, nil
	case *Array:
		if name == "length" {
			return boxNum(float64(o.Len())), nil
		}
		if m := arrayMethods[name]; m != nil {
			return m, nil
		}
		return Undefined, nil
	case string:
		if name == "length" {
			return boxNum(float64(len(o))), nil
		}
		if m := stringMethods[name]; m != nil {
			return m, nil
		}
		return Undefined, nil
	case nil:
		return nil, in.errorf(n, "cannot read %q of null", name)
	case UndefinedType:
		return nil, in.errorf(n, "cannot read %q of undefined", name)
	default:
		return Undefined, nil
	}
}

var hasOwnProperty = &Builtin{name: "hasOwnProperty", fn: func(_ *interp, this Value, args []Value) (Value, error) {
	o, ok := this.(*Object)
	if !ok || len(args) == 0 {
		return false, nil
	}
	_, has := o.Get(ToString(args[0]))
	return has, nil
}}

func toArray(this Value) *Array {
	a, _ := this.(*Array)
	return a
}

func argAt(args []Value, i int) Value {
	if i < len(args) {
		return args[i]
	}
	return Undefined
}

// arrayMethods holds the builtin behind each array method, built once: a
// method value carries no state, the receiver arrives as this.
var arrayMethods = map[string]*Builtin{}

func init() {
	type impl = func(in *interp, a *Array, args []Value) (Value, error)
	method := func(name string, mutates bool, fn impl) {
		arrayMethods[name] = &Builtin{name: name, fn: func(in *interp, this Value, args []Value) (Value, error) {
			a := toArray(this)
			if a == nil {
				return Undefined, nil
			}
			if mutates {
				a.own()
			} else {
				a.fill()
			}
			return fn(in, a, args)
		}}
	}
	// reads is a method that only looks at the elements; writes one that
	// changes the array, which ends its time as a view of a message.
	reads := func(name string, fn impl) { method(name, false, fn) }
	writes := func(name string, fn impl) { method(name, true, fn) }
	writes("push", func(_ *interp, a *Array, args []Value) (Value, error) {
		a.elems = append(a.elems, args...)
		return boxNum(float64(a.Len())), nil
	})
	writes("pop", func(_ *interp, a *Array, _ []Value) (Value, error) {
		if a.Len() == 0 {
			return Undefined, nil
		}
		v := a.elems[a.Len()-1]
		a.elems = a.elems[:a.Len()-1]
		return v, nil
	})
	writes("shift", func(_ *interp, a *Array, _ []Value) (Value, error) {
		if a.Len() == 0 {
			return Undefined, nil
		}
		v := a.elems[0]
		a.elems = append([]Value(nil), a.elems[1:]...)
		return v, nil
	})
	writes("unshift", func(_ *interp, a *Array, args []Value) (Value, error) {
		a.elems = append(append([]Value(nil), args...), a.elems...)
		return boxNum(float64(a.Len())), nil
	})
	reads("slice", func(_ *interp, a *Array, args []Value) (Value, error) {
		start, end := sliceBounds(a.Len(), args)
		out := make([]Value, 0, end-start)
		out = append(out, a.elems[start:end]...)
		return NewArray(out...), nil
	})
	writes("splice", func(_ *interp, a *Array, args []Value) (Value, error) {
		start := clampIndex(int(ToNumber(argAt(args, 0))), a.Len())
		count := a.Len() - start
		if len(args) > 1 {
			count = int(ToNumber(args[1]))
		}
		if count < 0 {
			count = 0
		}
		if start+count > a.Len() {
			count = a.Len() - start
		}
		removed := append([]Value(nil), a.elems[start:start+count]...)
		var inserted []Value
		if len(args) > 2 {
			inserted = args[2:]
		}
		rest := append([]Value(nil), a.elems[start+count:]...)
		a.elems = append(append(a.elems[:start], inserted...), rest...)
		return NewArray(removed...), nil
	})
	reads("indexOf", func(_ *interp, a *Array, args []Value) (Value, error) {
		want := argAt(args, 0)
		for i, e := range a.elems {
			if strictEquals(e, want) {
				return boxNum(float64(i)), nil
			}
		}
		return -1.0, nil
	})
	reads("join", func(_ *interp, a *Array, args []Value) (Value, error) {
		sep := ","
		if len(args) > 0 {
			sep = ToString(args[0])
		}
		parts := make([]string, a.Len())
		for i, e := range a.elems {
			if e == nil || e == Value(Undefined) {
				parts[i] = ""
			} else {
				parts[i] = ToString(e)
			}
		}
		return strings.Join(parts, sep), nil
	})
	reads("concat", func(_ *interp, a *Array, args []Value) (Value, error) {
		out := append([]Value(nil), a.elems...)
		for _, arg := range args {
			if other, ok := arg.(*Array); ok {
				other.fill()
				out = append(out, other.elems...)
			} else {
				out = append(out, arg)
			}
		}
		return NewArray(out...), nil
	})
	writes("reverse", func(_ *interp, a *Array, _ []Value) (Value, error) {
		for i, j := 0, a.Len()-1; i < j; i, j = i+1, j-1 {
			a.elems[i], a.elems[j] = a.elems[j], a.elems[i]
		}
		return a, nil
	})
	writes("sort", func(in *interp, a *Array, args []Value) (Value, error) {
		var sortErr error
		if len(args) > 0 {
			cmp := args[0]
			sort.SliceStable(a.elems, func(i, j int) bool {
				if sortErr != nil {
					return false
				}
				r, err := in.invoke(nil, cmp, Undefined, []Value{a.elems[i], a.elems[j]})
				if err != nil {
					sortErr = err
					return false
				}
				return ToNumber(r) < 0
			})
		} else {
			sort.SliceStable(a.elems, func(i, j int) bool {
				return ToString(a.elems[i]) < ToString(a.elems[j])
			})
		}
		if sortErr != nil {
			return nil, sortErr
		}
		return a, nil
	})
	reads("forEach", func(in *interp, a *Array, args []Value) (Value, error) {
		cb := argAt(args, 0)
		for i, e := range a.elems {
			if _, err := in.invoke(nil, cb, Undefined, []Value{e, boxNum(float64(i)), a}); err != nil {
				return nil, err
			}
		}
		return Undefined, nil
	})
	reads("map", func(in *interp, a *Array, args []Value) (Value, error) {
		cb := argAt(args, 0)
		out := make([]Value, a.Len())
		for i, e := range a.elems {
			v, err := in.invoke(nil, cb, Undefined, []Value{e, boxNum(float64(i)), a})
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return NewArray(out...), nil
	})
	reads("filter", func(in *interp, a *Array, args []Value) (Value, error) {
		cb := argAt(args, 0)
		var out []Value
		for i, e := range a.elems {
			keep, err := in.invoke(nil, cb, Undefined, []Value{e, boxNum(float64(i)), a})
			if err != nil {
				return nil, err
			}
			if Truthy(keep) {
				out = append(out, e)
			}
		}
		return NewArray(out...), nil
	})
	reads("reduce", func(in *interp, a *Array, args []Value) (Value, error) {
		cb := argAt(args, 0)
		var acc Value
		start := 0
		if len(args) > 1 {
			acc = args[1]
		} else {
			if a.Len() == 0 {
				return nil, in.errorf(nil, "reduce of empty array with no initial value")
			}
			acc = a.elems[0]
			start = 1
		}
		for i := start; i < a.Len(); i++ {
			v, err := in.invoke(nil, cb, Undefined, []Value{acc, a.elems[i], boxNum(float64(i)), a})
			if err != nil {
				return nil, err
			}
			acc = v
		}
		return acc, nil
	})
}

func clampIndex(i, n int) int {
	if i < 0 {
		i += n
	}
	if i < 0 {
		return 0
	}
	if i > n {
		return n
	}
	return i
}

func sliceBounds(n int, args []Value) (int, int) {
	start, end := 0, n
	if len(args) > 0 {
		if _, ok := args[0].(UndefinedType); !ok {
			start = clampIndex(int(ToNumber(args[0])), n)
		}
	}
	if len(args) > 1 {
		if _, ok := args[1].(UndefinedType); !ok {
			end = clampIndex(int(ToNumber(args[1])), n)
		}
	}
	if end < start {
		end = start
	}
	return start, end
}

// stringMethods is arrayMethods for strings.
var stringMethods = map[string]*Builtin{}

func init() {
	method := func(name string, fn func(in *interp, s string, args []Value) (Value, error)) {
		stringMethods[name] = &Builtin{name: name, fn: func(in *interp, this Value, args []Value) (Value, error) {
			s, ok := this.(string)
			if !ok {
				return Undefined, nil
			}
			return fn(in, s, args)
		}}
	}
	method("charAt", func(_ *interp, s string, args []Value) (Value, error) {
		i := int(ToNumber(argAt(args, 0)))
		if i < 0 || i >= len(s) {
			return "", nil
		}
		return string(s[i]), nil
	})
	method("charCodeAt", func(_ *interp, s string, args []Value) (Value, error) {
		i := int(ToNumber(argAt(args, 0)))
		if i < 0 || i >= len(s) {
			return math.NaN(), nil
		}
		return boxNum(float64(s[i])), nil
	})
	method("indexOf", func(_ *interp, s string, args []Value) (Value, error) {
		return boxNum(float64(strings.Index(s, ToString(argAt(args, 0))))), nil
	})
	method("lastIndexOf", func(_ *interp, s string, args []Value) (Value, error) {
		return boxNum(float64(strings.LastIndex(s, ToString(argAt(args, 0))))), nil
	})
	method("slice", func(_ *interp, s string, args []Value) (Value, error) {
		start, end := sliceBounds(len(s), args)
		return s[start:end], nil
	})
	method("substring", func(_ *interp, s string, args []Value) (Value, error) {
		start, end := sliceBounds(len(s), args)
		return s[start:end], nil
	})
	method("split", func(_ *interp, s string, args []Value) (Value, error) {
		sep := ToString(argAt(args, 0))
		var parts []string
		if len(args) == 0 {
			parts = []string{s}
		} else {
			parts = strings.Split(s, sep)
		}
		out := make([]Value, len(parts))
		for i, p := range parts {
			out[i] = p
		}
		return NewArray(out...), nil
	})
	method("toLowerCase", func(_ *interp, s string, _ []Value) (Value, error) {
		return strings.ToLower(s), nil
	})
	method("toUpperCase", func(_ *interp, s string, _ []Value) (Value, error) {
		return strings.ToUpper(s), nil
	})
	method("trim", func(_ *interp, s string, _ []Value) (Value, error) {
		return strings.TrimSpace(s), nil
	})
	method("replace", func(_ *interp, s string, args []Value) (Value, error) {
		old := ToString(argAt(args, 0))
		new := ToString(argAt(args, 1))
		return strings.Replace(s, old, new, 1), nil
	})
	method("startsWith", func(_ *interp, s string, args []Value) (Value, error) {
		return strings.HasPrefix(s, ToString(argAt(args, 0))), nil
	})
	method("endsWith", func(_ *interp, s string, args []Value) (Value, error) {
		return strings.HasSuffix(s, ToString(argAt(args, 0))), nil
	})
	method("toString", func(_ *interp, s string, _ []Value) (Value, error) {
		return s, nil
	})
}

// installGlobals populates the global scope with the standard library
// objects available to every script. rng seeds Math.random so simulated
// runs are reproducible.
func installGlobals(g *scope, rng *rand.Rand) {
	mathObj := NewObject()
	unaryMath := map[string]func(float64) float64{
		"abs": math.Abs, "floor": math.Floor, "ceil": math.Ceil,
		"sqrt": math.Sqrt, "exp": math.Exp, "log": math.Log,
		"sin": math.Sin, "cos": math.Cos, "tan": math.Tan,
		"atan": math.Atan, "round": func(f float64) float64 { return math.Floor(f + 0.5) },
	}
	for name, f := range unaryMath {
		f := f
		mathObj.Set(name, &Builtin{name: name, fn: func(_ *interp, _ Value, args []Value) (Value, error) {
			return boxNum(f(ToNumber(argAt(args, 0)))), nil
		}})
	}
	mathObj.Set("pow", &Builtin{name: "pow", fn: func(_ *interp, _ Value, args []Value) (Value, error) {
		return boxNum(math.Pow(ToNumber(argAt(args, 0)), ToNumber(argAt(args, 1)))), nil
	}})
	mathObj.Set("atan2", &Builtin{name: "atan2", fn: func(_ *interp, _ Value, args []Value) (Value, error) {
		return math.Atan2(ToNumber(argAt(args, 0)), ToNumber(argAt(args, 1))), nil
	}})
	mathObj.Set("min", &Builtin{name: "min", fn: func(_ *interp, _ Value, args []Value) (Value, error) {
		out := math.Inf(1)
		for _, a := range args {
			out = math.Min(out, ToNumber(a))
		}
		return boxNum(out), nil
	}})
	mathObj.Set("max", &Builtin{name: "max", fn: func(_ *interp, _ Value, args []Value) (Value, error) {
		out := math.Inf(-1)
		for _, a := range args {
			out = math.Max(out, ToNumber(a))
		}
		return boxNum(out), nil
	}})
	mathObj.Set("random", &Builtin{name: "random", fn: func(_ *interp, _ Value, _ []Value) (Value, error) {
		return rng.Float64(), nil
	}})
	mathObj.Set("PI", math.Pi)
	mathObj.Set("E", math.E)
	g.declare("Math", mathObj)

	g.declare("parseInt", &Builtin{name: "parseInt", fn: func(_ *interp, _ Value, args []Value) (Value, error) {
		s := strings.TrimSpace(ToString(argAt(args, 0)))
		end := 0
		if strings.HasPrefix(s, "-") || strings.HasPrefix(s, "+") {
			end = 1
		}
		for end < len(s) && s[end] >= '0' && s[end] <= '9' {
			end++
		}
		if end == 0 || s[:end] == "-" || s[:end] == "+" {
			return math.NaN(), nil
		}
		return boxNum(ToNumber(s[:end])), nil
	}})
	g.declare("parseFloat", &Builtin{name: "parseFloat", fn: func(_ *interp, _ Value, args []Value) (Value, error) {
		s := strings.TrimSpace(ToString(argAt(args, 0)))
		// Longest valid numeric prefix, JS-style.
		end, seenDot, seenExp := 0, false, false
		if end < len(s) && (s[end] == '-' || s[end] == '+') {
			end++
		}
		for end < len(s) {
			c := s[end]
			switch {
			case c >= '0' && c <= '9':
			case c == '.' && !seenDot && !seenExp:
				seenDot = true
			case (c == 'e' || c == 'E') && !seenExp && end > 0:
				seenExp = true
				if end+1 < len(s) && (s[end+1] == '-' || s[end+1] == '+') {
					end++
				}
			default:
				goto done
			}
			end++
		}
	done:
		for end > 0 {
			if f := ToNumber(s[:end]); !math.IsNaN(f) {
				return boxNum(f), nil
			}
			end--
		}
		return math.NaN(), nil
	}})
	g.declare("isNaN", &Builtin{name: "isNaN", fn: func(_ *interp, _ Value, args []Value) (Value, error) {
		return math.IsNaN(ToNumber(argAt(args, 0))), nil
	}})
	g.declare("String", &Builtin{name: "String", fn: func(_ *interp, _ Value, args []Value) (Value, error) {
		return ToString(argAt(args, 0)), nil
	}})
	g.declare("Number", &Builtin{name: "Number", fn: func(_ *interp, _ Value, args []Value) (Value, error) {
		return boxNum(ToNumber(argAt(args, 0))), nil
	}})
	g.declare("NaN", math.NaN())
	g.declare("Infinity", math.Inf(1))

	objectObj := NewObject()
	objectObj.Set("keys", &Builtin{name: "keys", fn: func(_ *interp, _ Value, args []Value) (Value, error) {
		o, ok := argAt(args, 0).(*Object)
		if !ok {
			return NewArray(), nil
		}
		keys := o.Keys()
		elems := make([]Value, len(keys))
		for i, k := range keys {
			elems[i] = k
		}
		return NewArray(elems...), nil
	}})
	g.declare("Object", objectObj)

	arrayObj := NewObject()
	arrayObj.Set("isArray", &Builtin{name: "isArray", fn: func(_ *interp, _ Value, args []Value) (Value, error) {
		_, ok := argAt(args, 0).(*Array)
		return ok, nil
	}})
	g.declare("Array", arrayObj)

	jsonObj := NewObject()
	jsonObj.Set("stringify", &Builtin{name: "stringify", fn: func(in *interp, _ Value, args []Value) (Value, error) {
		return in.jsonString("JSON.stringify", argAt(args, 0))
	}})
	jsonObj.Set("parse", &Builtin{name: "parse", fn: func(_ *interp, _ Value, args []Value) (Value, error) {
		v, err := msg.DecodeJSON([]byte(ToString(argAt(args, 0))))
		if err != nil {
			// JS semantics: JSON.parse throws, so scripts can try/catch it.
			return nil, throwSignal{value: "JSON.parse: " + err.Error()}
		}
		return FromMsg(v), nil
	}})
	g.declare("JSON", jsonObj)
}
