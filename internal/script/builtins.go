package script

import (
	"math"
	"math/rand"
	"sort"
	"strings"

	"pogo/internal/msg"
)

// getProperty resolves obj.name for every supported receiver type.
func (in *interp) getProperty(line int, obj value, name string) (value, error) {
	switch o := obj.(type) {
	case *object:
		if v, ok := o.lookup(name); ok {
			return v, nil
		}
		if name == "hasOwnProperty" {
			return hasOwnProperty, nil
		}
		return undefined, nil
	case *array:
		if name == "length" {
			return boxNum(float64(o.len())), nil
		}
		if m := arrayMethods[name]; m != nil {
			return m, nil
		}
		return undefined, nil
	case string:
		if name == "length" {
			return boxNum(float64(len(o))), nil
		}
		if m := stringMethods[name]; m != nil {
			return m, nil
		}
		return undefined, nil
	case nil:
		return nil, in.errorf(line, "cannot read %q of null", name)
	case undefinedType:
		return nil, in.errorf(line, "cannot read %q of undefined", name)
	default:
		return undefined, nil
	}
}

var hasOwnProperty = &builtin{name: "hasOwnProperty", fn: func(_ *interp, this value, args []value) (value, error) {
	o, ok := this.(*object)
	if !ok || len(args) == 0 {
		return false, nil
	}
	_, has := o.lookup(toString(args[0]))
	return has, nil
}}

func toArray(this value) *array {
	a, _ := this.(*array)
	return a
}

func argAt(args []value, i int) value {
	if i < len(args) {
		return args[i]
	}
	return undefined
}

// arrayMethods holds the builtin behind each array method, built once: a
// method value carries no state, the receiver arrives as this.
var arrayMethods = map[string]*builtin{}

func init() {
	type impl = func(in *interp, a *array, args []value) (value, error)
	method := func(name string, mutates bool, fn impl) {
		arrayMethods[name] = &builtin{name: name, fn: func(in *interp, this value, args []value) (value, error) {
			a := toArray(this)
			if a == nil {
				return undefined, nil
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
	writes("push", func(_ *interp, a *array, args []value) (value, error) {
		a.elems = append(a.elems, args...)
		return boxNum(float64(a.len())), nil
	})
	writes("pop", func(_ *interp, a *array, _ []value) (value, error) {
		if a.len() == 0 {
			return undefined, nil
		}
		v := a.elems[a.len()-1]
		a.elems = a.elems[:a.len()-1]
		return v, nil
	})
	writes("shift", func(_ *interp, a *array, _ []value) (value, error) {
		if a.len() == 0 {
			return undefined, nil
		}
		v := a.elems[0]
		a.elems = append([]value(nil), a.elems[1:]...)
		return v, nil
	})
	writes("unshift", func(_ *interp, a *array, args []value) (value, error) {
		a.elems = append(append([]value(nil), args...), a.elems...)
		return boxNum(float64(a.len())), nil
	})
	reads("slice", func(_ *interp, a *array, args []value) (value, error) {
		start, end := sliceBounds(a.len(), args)
		out := make([]value, 0, end-start)
		out = append(out, a.elems[start:end]...)
		return newArray(out...), nil
	})
	writes("splice", func(_ *interp, a *array, args []value) (value, error) {
		start := clampIndex(int(toNumber(argAt(args, 0))), a.len())
		count := a.len() - start
		if len(args) > 1 {
			count = int(toNumber(args[1]))
		}
		if count < 0 {
			count = 0
		}
		if start+count > a.len() {
			count = a.len() - start
		}
		removed := append([]value(nil), a.elems[start:start+count]...)
		var inserted []value
		if len(args) > 2 {
			inserted = args[2:]
		}
		rest := append([]value(nil), a.elems[start+count:]...)
		a.elems = append(append(a.elems[:start], inserted...), rest...)
		return newArray(removed...), nil
	})
	reads("indexOf", func(_ *interp, a *array, args []value) (value, error) {
		want := argAt(args, 0)
		for i, e := range a.elems {
			if strictEquals(e, want) {
				return boxNum(float64(i)), nil
			}
		}
		return -1.0, nil
	})
	reads("join", func(_ *interp, a *array, args []value) (value, error) {
		sep := ","
		if len(args) > 0 {
			sep = toString(args[0])
		}
		parts := make([]string, a.len())
		for i, e := range a.elems {
			if e == nil || e == value(undefined) {
				parts[i] = ""
			} else {
				parts[i] = toString(e)
			}
		}
		return strings.Join(parts, sep), nil
	})
	reads("concat", func(_ *interp, a *array, args []value) (value, error) {
		out := append([]value(nil), a.elems...)
		for _, arg := range args {
			if other, ok := arg.(*array); ok {
				other.fill()
				out = append(out, other.elems...)
			} else {
				out = append(out, arg)
			}
		}
		return newArray(out...), nil
	})
	writes("reverse", func(_ *interp, a *array, _ []value) (value, error) {
		for i, j := 0, a.len()-1; i < j; i, j = i+1, j-1 {
			a.elems[i], a.elems[j] = a.elems[j], a.elems[i]
		}
		return a, nil
	})
	writes("sort", func(in *interp, a *array, args []value) (value, error) {
		var sortErr error
		if len(args) > 0 {
			cmp := args[0]
			sort.SliceStable(a.elems, func(i, j int) bool {
				if sortErr != nil {
					return false
				}
				r, err := in.invoke(0, cmp, undefined, []value{a.elems[i], a.elems[j]})
				if err != nil {
					sortErr = err
					return false
				}
				return toNumber(r) < 0
			})
		} else {
			sort.SliceStable(a.elems, func(i, j int) bool {
				return toString(a.elems[i]) < toString(a.elems[j])
			})
		}
		if sortErr != nil {
			return nil, sortErr
		}
		return a, nil
	})
	reads("forEach", func(in *interp, a *array, args []value) (value, error) {
		cb := argAt(args, 0)
		for i, e := range a.elems {
			if _, err := in.invoke(0, cb, undefined, []value{e, boxNum(float64(i)), a}); err != nil {
				return nil, err
			}
		}
		return undefined, nil
	})
	reads("map", func(in *interp, a *array, args []value) (value, error) {
		cb := argAt(args, 0)
		out := make([]value, a.len())
		for i, e := range a.elems {
			v, err := in.invoke(0, cb, undefined, []value{e, boxNum(float64(i)), a})
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return newArray(out...), nil
	})
	reads("filter", func(in *interp, a *array, args []value) (value, error) {
		cb := argAt(args, 0)
		var out []value
		for i, e := range a.elems {
			keep, err := in.invoke(0, cb, undefined, []value{e, boxNum(float64(i)), a})
			if err != nil {
				return nil, err
			}
			if truthy(keep) {
				out = append(out, e)
			}
		}
		return newArray(out...), nil
	})
	reads("reduce", func(in *interp, a *array, args []value) (value, error) {
		cb := argAt(args, 0)
		var acc value
		start := 0
		if len(args) > 1 {
			acc = args[1]
		} else {
			if a.len() == 0 {
				return nil, in.errorf(0, "reduce of empty array with no initial value")
			}
			acc = a.elems[0]
			start = 1
		}
		for i := start; i < a.len(); i++ {
			v, err := in.invoke(0, cb, undefined, []value{acc, a.elems[i], boxNum(float64(i)), a})
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

func sliceBounds(n int, args []value) (int, int) {
	start, end := 0, n
	if len(args) > 0 {
		if _, ok := args[0].(undefinedType); !ok {
			start = clampIndex(int(toNumber(args[0])), n)
		}
	}
	if len(args) > 1 {
		if _, ok := args[1].(undefinedType); !ok {
			end = clampIndex(int(toNumber(args[1])), n)
		}
	}
	if end < start {
		end = start
	}
	return start, end
}

// stringMethods is arrayMethods for strings.
var stringMethods = map[string]*builtin{}

func init() {
	method := func(name string, fn func(in *interp, s string, args []value) (value, error)) {
		stringMethods[name] = &builtin{name: name, fn: func(in *interp, this value, args []value) (value, error) {
			s, ok := this.(string)
			if !ok {
				return undefined, nil
			}
			return fn(in, s, args)
		}}
	}
	method("charAt", func(_ *interp, s string, args []value) (value, error) {
		i := int(toNumber(argAt(args, 0)))
		if i < 0 || i >= len(s) {
			return "", nil
		}
		return string(s[i]), nil
	})
	method("charCodeAt", func(_ *interp, s string, args []value) (value, error) {
		i := int(toNumber(argAt(args, 0)))
		if i < 0 || i >= len(s) {
			return math.NaN(), nil
		}
		return boxNum(float64(s[i])), nil
	})
	method("indexOf", func(_ *interp, s string, args []value) (value, error) {
		return boxNum(float64(strings.Index(s, toString(argAt(args, 0))))), nil
	})
	method("lastIndexOf", func(_ *interp, s string, args []value) (value, error) {
		return boxNum(float64(strings.LastIndex(s, toString(argAt(args, 0))))), nil
	})
	method("slice", func(_ *interp, s string, args []value) (value, error) {
		start, end := sliceBounds(len(s), args)
		return s[start:end], nil
	})
	method("substring", func(_ *interp, s string, args []value) (value, error) {
		start, end := sliceBounds(len(s), args)
		return s[start:end], nil
	})
	method("split", func(_ *interp, s string, args []value) (value, error) {
		sep := toString(argAt(args, 0))
		var parts []string
		if len(args) == 0 {
			parts = []string{s}
		} else {
			parts = strings.Split(s, sep)
		}
		out := make([]value, len(parts))
		for i, p := range parts {
			out[i] = p
		}
		return newArray(out...), nil
	})
	method("toLowerCase", func(_ *interp, s string, _ []value) (value, error) {
		return strings.ToLower(s), nil
	})
	method("toUpperCase", func(_ *interp, s string, _ []value) (value, error) {
		return strings.ToUpper(s), nil
	})
	method("trim", func(_ *interp, s string, _ []value) (value, error) {
		return strings.TrimSpace(s), nil
	})
	method("replace", func(_ *interp, s string, args []value) (value, error) {
		old := toString(argAt(args, 0))
		new := toString(argAt(args, 1))
		return strings.Replace(s, old, new, 1), nil
	})
	method("startsWith", func(_ *interp, s string, args []value) (value, error) {
		return strings.HasPrefix(s, toString(argAt(args, 0))), nil
	})
	method("endsWith", func(_ *interp, s string, args []value) (value, error) {
		return strings.HasSuffix(s, toString(argAt(args, 0))), nil
	})
	method("toString", func(_ *interp, s string, _ []value) (value, error) {
		return s, nil
	})
}

// installGlobals populates the global table with the standard library
// objects available to every script. rng seeds Math.random so simulated
// runs are reproducible.
func installGlobals(g *table, rng *rand.Rand) {
	mathObj := newObject()
	unaryMath := map[string]func(float64) float64{
		"abs": math.Abs, "floor": math.Floor, "ceil": math.Ceil,
		"sqrt": math.Sqrt, "exp": math.Exp, "log": math.Log,
		"sin": math.Sin, "cos": math.Cos, "tan": math.Tan,
		"atan": math.Atan, "round": func(f float64) float64 { return math.Floor(f + 0.5) },
	}
	for name, f := range unaryMath {
		f := f
		mathObj.set(name, &builtin{name: name, fn: func(_ *interp, _ value, args []value) (value, error) {
			return boxNum(f(toNumber(argAt(args, 0)))), nil
		}})
	}
	mathObj.set("pow", &builtin{name: "pow", fn: func(_ *interp, _ value, args []value) (value, error) {
		return boxNum(math.Pow(toNumber(argAt(args, 0)), toNumber(argAt(args, 1)))), nil
	}})
	mathObj.set("atan2", &builtin{name: "atan2", fn: func(_ *interp, _ value, args []value) (value, error) {
		return math.Atan2(toNumber(argAt(args, 0)), toNumber(argAt(args, 1))), nil
	}})
	mathObj.set("min", &builtin{name: "min", fn: func(_ *interp, _ value, args []value) (value, error) {
		out := math.Inf(1)
		for _, a := range args {
			out = math.Min(out, toNumber(a))
		}
		return boxNum(out), nil
	}})
	mathObj.set("max", &builtin{name: "max", fn: func(_ *interp, _ value, args []value) (value, error) {
		out := math.Inf(-1)
		for _, a := range args {
			out = math.Max(out, toNumber(a))
		}
		return boxNum(out), nil
	}})
	mathObj.set("random", &builtin{name: "random", fn: func(_ *interp, _ value, _ []value) (value, error) {
		return rng.Float64(), nil
	}})
	mathObj.set("PI", math.Pi)
	mathObj.set("E", math.E)
	g.put("Math", mathObj)

	g.put("parseInt", &builtin{name: "parseInt", fn: func(_ *interp, _ value, args []value) (value, error) {
		s := strings.TrimSpace(toString(argAt(args, 0)))
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
		return boxNum(toNumber(s[:end])), nil
	}})
	g.put("parseFloat", &builtin{name: "parseFloat", fn: func(_ *interp, _ value, args []value) (value, error) {
		s := strings.TrimSpace(toString(argAt(args, 0)))
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
			if f := toNumber(s[:end]); !math.IsNaN(f) {
				return boxNum(f), nil
			}
			end--
		}
		return math.NaN(), nil
	}})
	g.put("isNaN", &builtin{name: "isNaN", fn: func(_ *interp, _ value, args []value) (value, error) {
		return math.IsNaN(toNumber(argAt(args, 0))), nil
	}})
	g.put("String", &builtin{name: "String", fn: func(_ *interp, _ value, args []value) (value, error) {
		return toString(argAt(args, 0)), nil
	}})
	g.put("Number", &builtin{name: "Number", fn: func(_ *interp, _ value, args []value) (value, error) {
		return boxNum(toNumber(argAt(args, 0))), nil
	}})
	g.put("NaN", math.NaN())
	g.put("Infinity", math.Inf(1))

	objectObj := newObject()
	objectObj.set("keys", &builtin{name: "keys", fn: func(_ *interp, _ value, args []value) (value, error) {
		o, ok := argAt(args, 0).(*object)
		if !ok {
			return newArray(), nil
		}
		keys := o.keys()
		elems := make([]value, len(keys))
		for i, k := range keys {
			elems[i] = k
		}
		return newArray(elems...), nil
	}})
	g.put("Object", objectObj)

	arrayObj := newObject()
	arrayObj.set("isArray", &builtin{name: "isArray", fn: func(_ *interp, _ value, args []value) (value, error) {
		_, ok := argAt(args, 0).(*array)
		return ok, nil
	}})
	g.put("Array", arrayObj)

	jsonObj := newObject()
	jsonObj.set("stringify", &builtin{name: "stringify", fn: func(in *interp, _ value, args []value) (value, error) {
		return in.jsonString("JSON.stringify", argAt(args, 0))
	}})
	jsonObj.set("parse", &builtin{name: "parse", fn: func(_ *interp, _ value, args []value) (value, error) {
		v, err := msg.DecodeJSON([]byte(toString(argAt(args, 0))))
		if err != nil {
			// JS semantics: JSON.parse throws, so scripts can try/catch it.
			return nil, throwSignal{value: "JSON.parse: " + err.Error()}
		}
		return fromMsg(v), nil
	}})
	g.put("JSON", jsonObj)
}
