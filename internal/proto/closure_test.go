package proto

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoClosuresOutsideBinders fails on a func literal in the package's
// non-test code outside the functions that bind the handlers once and
// StallProbe's watchdog probe. It is the syntactic form of `go build
// -gcflags=-m`'s escape report: any other literal would be a closure
// built per call, which is what no pending event may carry. The two
// CheckInvariants visitors of cache.Array.ForEachValid also stay: they
// run synchronously at quiescence and never outlive the call.
func TestNoClosuresOutsideBinders(t *testing.T) {
	allowed := map[string]bool{
		"engineBase.bindHandlers": true, "dicoCore.init": true, "NewProviders": true,
		"Directory.bindHandlers": true, "NewArin": true, "StallProbe": true,
		"dicoCore.CheckInvariants": true, "Directory.CheckInvariants": true,
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			encl := declName(d)
			ast.Inspect(d, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok && !allowed[encl] {
					t.Errorf("%s: func literal in %s", fset.Position(lit.Pos()), encl)
				}
				return true
			})
		}
	}
}

// declName names a function declaration as Type.Method or Func; any
// other declaration gets "package scope".
func declName(d ast.Decl) string {
	fd, ok := d.(*ast.FuncDecl)
	if !ok {
		return "package scope"
	}
	if fd.Recv == nil {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if idx, ok := typ.(*ast.IndexExpr); ok {
		typ = idx.X
	}
	return typ.(*ast.Ident).Name + "." + fd.Name.Name
}
