package pogo

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestExportsHaveCallers: a name under internal/ earns its place by being
// used. The module, bench/ and every test file are type-checked from source
// with go/types, the standard library read from `go list -export`, and each
// identifier is resolved to the declaration it names.
//
// An exported name or method fails unless something outside its package
// uses it: cmd/, examples/, the root tests, bench/ or another package's
// code or tests. An unexported top-level name or method fails unless its
// package's non-test code uses it; a use inside the declaration itself
// (recursion, or a method's own receiver) does not count. Three exemptions
// are resolved by the type checker, not listed by name:
//
//   - a method passes when a value of its type is converted to an interface
//     somewhere, directly or as an element or exported field of a converted
//     value, and it belongs to an interface its type implements: the error,
//     fmt.Stringer or json.Marshaler a library looks for, or heap.Interface
//     through heap.Push;
//   - a method of an interface passes when a type outside the interface's
//     package implements it (script.Host);
//   - a type passes when it appears in the signature, exported fields or
//     type of a name that passes.
//
// There is no allowlist. A finding is fixed by deleting the name (and each
// test that checks only what it did), else by moving it into its package's
// export_test.go when a test needs it to reach behaviour production has,
// else by unexporting it.
//
// The same resolution yields the names that pass only because bench/ uses
// them, the API the benchmark's byte-frozen sources pin; they must equal
// frozenByBench.
func TestExportsHaveCallers(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	u, err := loadUniverse(goBin, ".", "bench")
	if err != nil {
		t.Fatal(err)
	}
	findings, benchOnly, exported := u.audit()
	t.Logf("%d exported names and methods under internal/", exported)
	for _, f := range findings {
		t.Error(f)
	}
	if !slices.Equal(benchOnly, frozenByBench) {
		t.Errorf("the names only bench/ keeps differ from frozenByBench:\n"+
			"  missing from frozenByBench: %v\n  in frozenByBench, not kept by bench/ alone: %v",
			minus(benchOnly, frozenByBench), minus(frozenByBench, benchOnly))
	}
}

// frozenByBench is the API bench/ alone keeps (DESIGN.md, "API frozen by
// bench/"): without bench/'s uses each name would fail the rule, and the
// benchmark's sources may not change between a change and its parent, so
// they stay until bench/ does. Sorted.
var frozenByBench = []string{
	"core.FlushManual",
	"core.Node.Contexts",
	"core.Node.Pending",
	"msg.DecodeFrozen",
	"store.Outbox.Ack",
	"store.Outbox.PendingInto",
	"transport.BatchSender",
	"transport.BatchSender.SendBatch",
	"transport.ErrOffline",
	"transport.TraceSender",
	"transport.TraceSender.SendTraced",
}

func minus(a, b []string) []string {
	var out []string
	for _, s := range a {
		if !slices.Contains(b, s) {
			out = append(out, s)
		}
	}
	return out
}

// listedPkg is the part of `go list -json` the guard reads. With -test, a
// package recompiled for another package's test is listed again under an
// ID like "pogo/internal/script [pogo/internal/msg.test]", its GoFiles
// including the test files and its ImportMap naming the variants it uses.
type listedPkg struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
	ImportMap               map[string]string
	Standard                bool
}

func goList(goBin, dir string, args ...string) ([]listedPkg, error) {
	cmd := exec.Command(goBin, append([]string{"list", "-json=ImportPath,Dir,Export,GoFiles,ImportMap,Standard"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v in %s: %v\n%s", args, dir, err, stderr.Bytes())
	}
	var pkgs []listedPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

// unit is one type-checked package variant.
type unit struct {
	id    string // the go list ID, variant suffix included
	dir   string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

type universe struct {
	fset  *token.FileSet
	units []*unit // dependencies first
	root  string  // absolute path of the module root
}

// loadUniverse type-checks every package of the modules in dirs, test
// variants included. A file is parsed once and shared by every variant that
// compiles it, so one declaration has one token.Pos in all of them.
func loadUniverse(goBin string, dirs ...string) (*universe, error) {
	root, err := filepath.Abs(".")
	if err != nil {
		return nil, err
	}
	var listed []listedPkg
	std := map[string]bool{}
	for _, d := range dirs {
		pkgs, err := goList(goBin, d, "-deps", "-test", "./...")
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			if p.Standard {
				std[p.ImportPath] = true
			} else if !strings.HasSuffix(p.ImportPath, ".test") {
				listed = append(listed, p)
			}
		}
	}
	exports := map[string]string{}
	stdPaths := make([]string, 0, len(std))
	for p := range std {
		stdPaths = append(stdPaths, p)
	}
	pkgs, err := goList(goBin, ".", append([]string{"-export"}, stdPaths...)...)
	if err != nil {
		return nil, err
	}
	for _, p := range pkgs {
		exports[p.ImportPath] = p.Export
	}

	u := &universe{fset: token.NewFileSet(), root: root}
	stdImp := importer.ForCompiler(u.fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	parsed := map[string]*ast.File{}
	checked := map[string]*types.Package{}
	for _, p := range listed {
		if checked[p.ImportPath] != nil {
			continue // the plain variant of a pogo/internal package bench/ lists again
		}
		un := &unit{id: p.ImportPath, dir: p.Dir, info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}}
		for _, name := range p.GoFiles {
			path := filepath.Join(p.Dir, name)
			f := parsed[path]
			if f == nil {
				if f, err = parser.ParseFile(u.fset, path, nil, parser.SkipObjectResolution); err != nil {
					return nil, err
				}
				parsed[path] = f
			}
			un.files = append(un.files, f)
		}
		conf := types.Config{
			Sizes: types.SizesFor("gc", runtime.GOARCH),
			Importer: importerFunc(func(path string) (*types.Package, error) {
				if id, ok := p.ImportMap[path]; ok {
					path = id
				}
				if pkg := checked[path]; pkg != nil {
					return pkg, nil
				}
				return stdImp.Import(path)
			}),
		}
		path, _, _ := strings.Cut(p.ImportPath, " ")
		if un.pkg, err = conf.Check(path, u.fset, un.files, un.info); err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = un.pkg
		u.units = append(u.units, un)
	}
	return u, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// decl is one declaration the rule judges, and what uses it.
type decl struct {
	obj      types.Object
	name     string    // msg.Encode, core.Node.Deploy
	dir      string    // its package's directory
	iface    token.Pos // for a method of an interface, where the interface is named
	start    token.Pos // the declaration's own text: a use inside it
	end      token.Pos // is recursion, not a caller
	outside  bool      // used outside its package other than by bench/
	bench    bool      // used by bench/
	ownCode  bool      // used by its package's non-test code
	ownTest  bool      // used by its package's tests
	converts bool      // a method its type's conversion to an interface may call
}

// audit returns the findings, the names that pass only because bench/ uses
// them, sorted, and how many exported names and methods it judged.
func (u *universe) audit() (findings, benchOnly []string, exported int) {
	decls := map[token.Pos]*decl{}
	var order []*decl
	for _, un := range u.units {
		if un.id != un.pkg.Path() || !strings.HasPrefix(un.id, "pogo/internal/") {
			continue // only the plain variant declares what is judged
		}
		add := func(id *ast.Ident, node ast.Node, recv string, iface token.Pos) {
			obj := un.info.Defs[id]
			if obj == nil || id.Name == "_" || id.Name == "init" {
				return
			}
			name := un.pkg.Name() + "." + id.Name
			if recv != "" {
				name = un.pkg.Name() + "." + recv + "." + id.Name
			}
			d := &decl{obj: obj, name: name, dir: un.dir, iface: iface, start: node.Pos(), end: node.End()}
			decls[obj.Pos()] = d
			order = append(order, d)
		}
		for _, f := range un.files {
			for _, dd := range f.Decls {
				switch dd := dd.(type) {
				case *ast.FuncDecl:
					add(dd.Name, dd, recvName(dd), token.NoPos)
				case *ast.GenDecl:
					for _, s := range dd.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(s.Name, s, "", token.NoPos)
							if it, ok := s.Type.(*ast.InterfaceType); ok {
								for _, m := range it.Methods.List {
									for _, n := range m.Names {
										add(n, m, s.Name.Name, s.Name.Pos())
									}
								}
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								add(n, s, "", token.NoPos)
							}
						}
					}
				}
			}
		}
	}

	for _, un := range u.units {
		converted := map[types.Type]bool{}
		for _, f := range un.files {
			u.recordUses(un, f, decls)
			recordConversions(un.info, f, converted)
		}
		markConverted(converted, visibleInterfaces(un), decls)
	}
	u.markImplementedOutside(decls)

	passes := passing(order, decls, true)
	withoutBench := passing(order, decls, false)
	for _, d := range order {
		if d.obj.Exported() {
			exported++
		}
		if passes[d] && !withoutBench[d] {
			benchOnly = append(benchOnly, d.name)
		}
		if passes[d] {
			continue
		}
		var why string
		switch {
		case d.obj.Exported() && d.ownCode:
			why = "exported, but only its own package uses it: unexport it"
		case d.ownTest:
			why = "only tests use it: delete it with the tests that check only it, or move it into a _test.go file"
		default:
			why = "nothing uses it: delete it"
		}
		findings = append(findings, fmt.Sprintf("%s: %s: %s", u.rel(d.start), d.name, why))
	}
	sort.Strings(benchOnly)
	return findings, benchOnly, exported
}

// passing returns the declarations that pass: on their own, or, for a type,
// with the exported names whose signatures or fields show it. With bench
// false, a use by bench/ is not counted.
func passing(order []*decl, decls map[token.Pos]*decl, bench bool) map[*decl]bool {
	passes := map[*decl]bool{}
	var work []*decl
	for _, d := range order {
		if d.outside || (bench && d.bench) || d.converts || (!d.obj.Exported() && d.ownCode) {
			passes[d] = true
			if d.obj.Exported() {
				work = append(work, d)
			}
		}
	}
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		walkTypes(signatureOf(d.obj), map[types.Type]bool{}, func(tn *types.TypeName) {
			if dd := decls[tn.Pos()]; dd != nil && !passes[dd] {
				passes[dd] = true
				work = append(work, dd)
			}
		})
	}
	return passes
}

func (u *universe) inBench(file string) bool {
	return strings.HasPrefix(file, filepath.Join(u.root, "bench")+string(filepath.Separator))
}

func (u *universe) rel(pos token.Pos) string {
	p := u.fset.Position(pos)
	if r, err := filepath.Rel(u.root, p.Filename); err == nil {
		p.Filename = r
	}
	return p.String()
}

func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	x := fd.Recv.List[0].Type
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.Ident:
			return t.Name
		default:
			return "?"
		}
	}
}

// recordUses marks on each declaration in decls who, in f, uses it.
func (u *universe) recordUses(un *unit, f *ast.File, decls map[token.Pos]*decl) {
	file := u.fset.Position(f.Pos()).Filename
	dir, test := filepath.Dir(file), strings.HasSuffix(file, "_test.go")
	bench := u.inBench(file)
	for _, top := range f.Decls {
		var recv ast.Node
		if fd, ok := top.(*ast.FuncDecl); ok && fd.Recv != nil {
			recv = fd.Recv
		}
		ast.Inspect(top, func(n ast.Node) bool {
			if n == recv {
				return false
			}
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := un.info.Uses[id]
			if obj == nil {
				return true
			}
			d := decls[obj.Pos()]
			if d == nil || d.obj.Name() != obj.Name() || (id.Pos() >= d.start && id.Pos() < d.end) {
				return true
			}
			switch {
			case dir != d.dir && bench:
				d.bench = true
			case dir != d.dir:
				d.outside = true
			case test:
				d.ownTest = true
			default:
				d.ownCode = true
			}
			return true
		})
	}
}

// markImplementedOutside counts a type outside an interface's package that
// implements it as a use of each of the interface's methods. The type need
// not import the interface's package (android.Device is a
// sensors.BatterySource), so each unit pairs every type it can name with
// every interface it can name.
func (u *universe) markImplementedOutside(decls map[token.Pos]*decl) {
	methods := map[token.Pos][]*decl{} // an interface's name → its methods
	for _, d := range decls {
		if d.iface.IsValid() {
			methods[d.iface] = append(methods[d.iface], d)
		}
	}
	done := map[[2]token.Pos]bool{}
	for _, un := range u.units {
		typs := typeNames(un.pkg, func(p *types.Package) bool { return strings.HasPrefix(p.Path(), "pogo/") })
		var ifaces []*types.TypeName
		for _, tn := range typs {
			if methods[tn.Pos()] != nil {
				ifaces = append(ifaces, tn)
			}
		}
		for _, obj := range un.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				typs = append(typs, tn) // a type declared in a function
			}
		}
		for _, tn := range typs {
			if tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			file := u.fset.Position(tn.Pos()).Filename
			for _, in := range ifaces {
				ms := methods[in.Pos()]
				key := [2]token.Pos{tn.Pos(), in.Pos()}
				if done[key] || ms[0].dir == filepath.Dir(file) {
					continue
				}
				done[key] = true
				it := in.Type().Underlying().(*types.Interface)
				if !types.Implements(tn.Type(), it) && !types.Implements(types.NewPointer(tn.Type()), it) {
					continue
				}
				for _, m := range ms {
					if u.inBench(file) {
						m.bench = true
					} else {
						m.outside = true
					}
				}
			}
		}
	}
}

// visibleInterfaces lists the interfaces with methods that un can name:
// declared in a package it reaches, or written as a type in it.
func visibleInterfaces(un *unit) []*types.Interface {
	seen := map[*types.Interface]bool{}
	var out []*types.Interface
	add := func(t types.Type) {
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			out = append(out, it)
		}
	}
	for _, tn := range typeNames(un.pkg, func(*types.Package) bool { return true }) {
		add(tn.Type())
	}
	for _, tv := range un.info.Types {
		if tv.Type != nil {
			add(tv.Type)
		}
	}
	return out
}

// typeNames lists the package-level type names of p and of the packages it
// imports, directly or not, that keep accepts.
func typeNames(p *types.Package, keep func(*types.Package) bool) []*types.TypeName {
	var out []*types.TypeName
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] || !keep(p) {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				out = append(out, tn)
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	visit(p)
	return out
}

// markConverted marks, for each named type reachable from a converted
// value (itself, or through the elements and exported fields a reflective
// library like encoding/json walks), the methods by which it implements an
// interface in ifaces: once a value is an interface, a type assertion or a
// library may call any of them.
func markConverted(converted map[types.Type]bool, ifaces []*types.Interface, decls map[token.Pos]*decl) {
	seen := map[types.Type]bool{}
	var reach func(t types.Type)
	reach = func(t types.Type) {
		if seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			if !types.IsInterface(t) {
				ms := types.NewMethodSet(types.NewPointer(t))
				for _, it := range ifaces {
					first := it.Method(0)
					if ms.Lookup(first.Pkg(), first.Name()) == nil || !types.Implements(types.NewPointer(t), it) {
						continue
					}
					for i := 0; i < it.NumMethods(); i++ {
						m := it.Method(i)
						if d := decls[ms.Lookup(m.Pkg(), m.Name()).Obj().Pos()]; d != nil {
							d.converts = true
						}
					}
				}
			}
			reach(t.Underlying())
		case *types.Pointer:
			reach(t.Elem())
		case *types.Slice:
			reach(t.Elem())
		case *types.Array:
			reach(t.Elem())
		case *types.Map:
			reach(t.Key())
			reach(t.Elem())
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() || f.Embedded() {
					reach(f.Type())
				}
			}
		}
	}
	for t := range converted {
		reach(t)
	}
}

// recordConversions records each type a value of which f converts to an
// interface: by an explicit conversion, or implicitly as a call's
// argument, an assignment, a return value, a composite literal's element or
// a channel send.
func recordConversions(info *types.Info, f *ast.File, converted map[types.Type]bool) {
	conv := func(dst types.Type, e ast.Expr) {
		if dst == nil || !types.IsInterface(dst) {
			return
		}
		if src := info.TypeOf(e); src != nil && !types.IsInterface(src) {
			converted[src] = true
		}
	}
	var sigs []*types.Signature
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			switch stack[len(stack)-1].(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				sigs = sigs[:len(sigs)-1]
			}
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.FuncDecl:
			sig, _ := info.Defs[n.Name].Type().(*types.Signature)
			sigs = append(sigs, sig)
		case *ast.FuncLit:
			sig, _ := info.TypeOf(n).(*types.Signature)
			sigs = append(sigs, sig)
		case *ast.ReturnStmt:
			if sig := sigs[len(sigs)-1]; sig != nil && sig.Results().Len() == len(n.Results) {
				for i, r := range n.Results {
					conv(sig.Results().At(i).Type(), r)
				}
			}
		case *ast.CallExpr:
			tv := info.Types[n.Fun]
			if tv.IsType() {
				if len(n.Args) == 1 {
					conv(tv.Type, n.Args[0])
				}
				return true
			}
			sig, ok := tv.Type.(*types.Signature)
			if !ok {
				return true
			}
			ps := sig.Params()
			for i, a := range n.Args {
				switch {
				case sig.Variadic() && i >= ps.Len()-1 && !n.Ellipsis.IsValid():
					conv(ps.At(ps.Len()-1).Type().(*types.Slice).Elem(), a)
				case i < ps.Len():
					conv(ps.At(i).Type(), a)
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					conv(info.TypeOf(n.Lhs[i]), n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				for _, v := range n.Values {
					conv(info.TypeOf(n.Type), v)
				}
			}
		case *ast.SendStmt:
			if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
				conv(ch.Elem(), n.Value)
			}
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if t == nil {
				return true
			}
			for i, e := range n.Elts {
				kv, _ := e.(*ast.KeyValueExpr)
				switch lit := t.Underlying().(type) {
				case *types.Struct:
					if kv != nil {
						if obj := info.Uses[kv.Key.(*ast.Ident)]; obj != nil {
							conv(obj.Type(), kv.Value)
						}
					} else if i < lit.NumFields() {
						conv(lit.Field(i).Type(), e)
					}
				case *types.Slice:
					conv(lit.Elem(), valueOf(e))
				case *types.Array:
					conv(lit.Elem(), valueOf(e))
				case *types.Map:
					if kv != nil {
						conv(lit.Key(), kv.Key)
						conv(lit.Elem(), kv.Value)
					}
				}
			}
		}
		return true
	})
}

func valueOf(e ast.Expr) ast.Expr {
	if kv, ok := e.(*ast.KeyValueExpr); ok {
		return kv.Value
	}
	return e
}

// signatureOf is the type a name shows its users: a function's signature,
// a variable's or constant's type, a type's definition.
func signatureOf(obj types.Object) types.Type {
	if tn, ok := obj.(*types.TypeName); ok {
		return tn.Type().Underlying()
	}
	return obj.Type()
}

// walkTypes calls visit for each named type t is built from: through
// pointers, containers, signatures, and a struct's exported or embedded
// fields. An interface's methods are judged one by one, so it is not
// entered.
func walkTypes(t types.Type, seen map[types.Type]bool, visit func(*types.TypeName)) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		visit(t.Origin().Obj())
		for i := 0; i < t.TypeArgs().Len(); i++ {
			walkTypes(t.TypeArgs().At(i), seen, visit)
		}
	case *types.Alias:
		walkTypes(types.Unalias(t), seen, visit)
	case *types.Pointer:
		walkTypes(t.Elem(), seen, visit)
	case *types.Slice:
		walkTypes(t.Elem(), seen, visit)
	case *types.Array:
		walkTypes(t.Elem(), seen, visit)
	case *types.Chan:
		walkTypes(t.Elem(), seen, visit)
	case *types.Map:
		walkTypes(t.Key(), seen, visit)
		walkTypes(t.Elem(), seen, visit)
	case *types.Signature:
		if t.Recv() != nil {
			walkTypes(t.Recv().Type(), seen, visit)
		}
		walkTypes(t.Params(), seen, visit)
		walkTypes(t.Results(), seen, visit)
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			walkTypes(t.At(i).Type(), seen, visit)
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if f := t.Field(i); f.Exported() || f.Embedded() {
				walkTypes(f.Type(), seen, visit)
			}
		}
	}
}
