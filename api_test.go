package flowercdn

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestDependentsNamesDeclared: bench/ is a module of its own, so `go test
// ./...` never compiles it against this package. Every flowercdn.<Name>
// that it, an example or flowersim selects must be declared here, or the
// benchmark stops building without a root test noticing.
func TestDependentsNamesDeclared(t *testing.T) {
	parse := func(pattern string) map[string]*ast.File {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		files := map[string]*ast.File{}
		for _, path := range paths {
			if files[path], err = parser.ParseFile(token.NewFileSet(), path, nil, 0); err != nil {
				t.Fatal(err)
			}
		}
		return files
	}
	declared := map[string]bool{}
	for path, f := range parse("*.go") {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					declared[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						declared[s.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							declared[n.Name] = true
						}
					}
				}
			}
		}
	}
	selected := map[string]bool{}
	for _, pattern := range []string{"bench/*.go", "examples/*/*.go", "cmd/flowersim/*.go"} {
		for _, f := range parse(pattern) {
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "flowercdn" {
						selected[sel.Sel.Name] = true
					}
				}
				return true
			})
		}
	}
	if len(selected) < 20 {
		t.Fatalf("found %d names selected from flowercdn; the parse missed some", len(selected))
	}
	for name := range selected {
		if !declared[name] {
			t.Errorf("flowercdn.%s is selected by bench/, an example or flowersim, but package flowercdn declares no %s", name, name)
		}
	}
}
