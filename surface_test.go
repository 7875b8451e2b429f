package tcqr

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"sort"
	"strings"
	"testing"
)

// publicSurface lists the package's exported identifiers, one per line,
// sorted: consts, vars, funcs, types, the fields of exported structs and the
// methods of exported types, parsed from the non-test files of this
// directory.
func publicSurface(t *testing.T) []string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, f := range pkgs["tcqr"].Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					out = append(out, "func "+d.Name.Name)
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
					out = append(out, "method "+id.Name+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								out = append(out, d.Tok.String()+" "+n.Name)
							}
						}
					case *ast.TypeSpec:
						if !s.Name.IsExported() {
							continue
						}
						out = append(out, "type "+s.Name.Name)
						if st, ok := s.Type.(*ast.StructType); ok {
							for _, field := range st.Fields.List {
								for _, n := range field.Names {
									if n.IsExported() {
										out = append(out, "field "+s.Name.Name+"."+n.Name)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestPublicSurface holds the exported surface of package tcqr to
// testdata/api.golden, so it can only regrow as a reviewed diff of that file.
// The rule for a new line: a cmd/tcqr-tables experiment, a cmd/tcqr op,
// internal/serve or the benchmark module calls it.
func TestPublicSurface(t *testing.T) {
	golden, err := os.ReadFile("testdata/api.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		want[line] = true
	}
	for _, id := range publicSurface(t) {
		if !want[id] {
			t.Errorf("exported but not in testdata/api.golden: %s", id)
		}
		delete(want, id)
	}
	for id := range want {
		t.Errorf("in testdata/api.golden but no longer exported: %s", id)
	}
}
