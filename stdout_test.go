package pogo

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestLibrariesDoNotPrint: library packages never write to the process's
// stdout or stderr. Script output goes through core.LogStore and
// diagnostics through internal/obs; only the binaries under cmd/ print.
// Every non-test file under internal/ is parsed, and a call to fmt.Print*,
// any use of package log, a call to the builtins print or println, or any
// use of os.Stdout or os.Stderr fails the test. Test files are exempt: an
// Example function must print.
//
// The same walk rejects sync.Pool. Under -race a pool drops what it is
// given at random, so an allocation pin over pooled code needs a second,
// looser budget there; a buffer owned by the one caller that serializes its
// use keeps every pin exact under both builds.
func TestLibrariesDoNotPrint(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, at := range printsIn(f) {
			t.Errorf("%s: %s", fset.Position(at.pos), at.what)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

type printUse struct {
	pos  token.Pos
	what string
}

// printsIn lists the uses in f of what TestLibrariesDoNotPrint forbids. A
// package is recognised by the name f imports it under, and a name that
// resolves to a declaration in f (a local variable called log, say) is not
// the package or the builtin.
func printsIn(f *ast.File) []printUse {
	imported := map[string]string{} // local name → import path
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imported[name] = path
	}
	var uses []printUse
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			pkg, ok := n.X.(*ast.Ident)
			if !ok || pkg.Obj != nil {
				return true
			}
			switch sel := n.Sel.Name; imported[pkg.Name] {
			case "fmt":
				if strings.HasPrefix(sel, "Print") {
					uses = append(uses, printUse{n.Pos(), "fmt." + sel})
				}
			case "log":
				uses = append(uses, printUse{n.Pos(), "log." + sel})
			case "os":
				if sel == "Stdout" || sel == "Stderr" {
					uses = append(uses, printUse{n.Pos(), "os." + sel})
				}
			case "sync":
				if sel == "Pool" {
					uses = append(uses, printUse{n.Pos(), "sync.Pool: allocation pins must be exact under -race, " +
						"where a pool drops what it holds at random; give the buffer to the caller that serializes its use"})
				}
			}
		case *ast.CallExpr:
			if fn, ok := n.Fun.(*ast.Ident); ok && fn.Obj == nil && (fn.Name == "print" || fn.Name == "println") {
				uses = append(uses, printUse{n.Pos(), "builtin " + fn.Name})
			}
		}
		return true
	})
	return uses
}
