package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestHotpathAnnotationsMatchGuards walks the whole repository and checks
// that the set of functions annotated //odbgc:hotpath (enforced by the
// hotcall analyzer) equals the set declared by //odbgc:allocguard lines
// in the AllocsPerRun guard tests. An annotation without a guard means the
// static rule runs against a function whose runtime behavior nothing
// pins; a guard without an annotation means a zero-alloc contract the
// analyzer is not enforcing. Either drift fails this test.
func TestHotpathAnnotationsMatchGuards(t *testing.T) {
	root := repoRoot(t)

	annotated := map[string]token.Position{}
	guarded := map[string]token.Position{}

	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			// Fixtures under testdata carry deliberate annotations for
			// the analyzer tests; they are not part of the contract.
			if name == "testdata" || strings.HasPrefix(name, ".") || name == "bin" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		if strings.HasSuffix(path, "_test.go") {
			collectGuards(fset, f, guarded)
			return nil
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !IsHotPath(fn) {
				continue
			}
			annotated[qualifiedName(pkg, fn)] = fset.Position(fn.Pos())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(annotated) == 0 {
		t.Fatal("no //odbgc:hotpath annotations found anywhere in the repository")
	}
	if len(guarded) == 0 {
		t.Fatal("no //odbgc:allocguard declarations found anywhere in the repository")
	}

	for name, pos := range annotated {
		if _, ok := guarded[name]; !ok {
			t.Errorf("%s: %s is annotated //odbgc:hotpath but no alloc guard test declares //odbgc:allocguard %s",
				pos, name, name)
		}
	}
	for name, pos := range guarded {
		if _, ok := annotated[name]; !ok {
			t.Errorf("%s: //odbgc:allocguard declares %s but the function carries no //odbgc:hotpath annotation",
				pos, name)
		}
	}
	if t.Failed() {
		t.Logf("annotated set: %v", sortedKeys(annotated))
		t.Logf("guarded set:   %v", sortedKeys(guarded))
	}
}

// collectGuards records every name listed on an //odbgc:allocguard line in
// the file. Names are fully qualified (pkg.Recv.Func or pkg.Func),
// space-separated, declared next to the AllocsPerRun tests that pin them.
func collectGuards(fset *token.FileSet, f *ast.File, out map[string]token.Position) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, "//odbgc:allocguard")
			if !ok {
				continue
			}
			for _, name := range strings.Fields(rest) {
				out[name] = fset.Position(c.Pos())
			}
		}
	}
}

// qualifiedName renders a function as pkg.Recv.Func (methods, any pointer
// stripped from the receiver type) or pkg.Func (plain functions).
func qualifiedName(pkg string, fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return pkg + "." + fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	recv := "?"
	switch tt := typ.(type) {
	case *ast.Ident:
		recv = tt.Name
	case *ast.IndexExpr: // generic receiver T[P]
		if id, ok := tt.X.(*ast.Ident); ok {
			recv = id.Name
		}
	}
	return pkg + "." + recv + "." + fn.Name.Name
}

// repoRoot locates the module root by walking up from the package
// directory until go.mod appears.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above the test directory")
		}
		dir = parent
	}
}

func sortedKeys(m map[string]token.Position) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
