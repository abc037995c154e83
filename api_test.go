package bvc_test

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/api.golden from the root package's exports")

// callers names, for every exported func, type and method of the root
// package, one place outside the tests that needs it. A path is a
// directory of this module or bench, the benchmark's own module; its
// non-test files must use the export (bvc.Name, or .Method for a
// method). "in X" names another export whose declaration holds it. "none"
// marks an export with no caller, kept until the change named beside it.
var callers = map[string]string{
	"Byzantine":               "cmd/bvcsim",
	"Config":                  "examples/quickstart",
	"DelayKind":               "in DelaySpec",
	"DelaySpec":               "cmd/bvcsim",
	"EngineGammaCounters":     "bench",
	"Gamma":                   "examples/robots",
	"GammaCounters":           "bench",
	"GammaEngine":             "none: goes with ROADMAP's engines item",
	"GammaEngine.Counters":    "none: goes with ROADMAP's engines item",
	"InConvexHull":            "examples/tcpcluster",
	"Membership":              "cmd/bvcload",
	"MinProcesses":            "cmd/bvcsim",
	"NewGammaEngine":          "none: goes with ROADMAP's engines item",
	"NewService":              "examples/tcpcluster",
	"ProcessResult":           "in Result",
	"ResetEngineCaches":       "bench",
	"Result":                  "cmd/bvcsim",
	"Result.Decisions":        "examples/simplexvote",
	"Result.VerifyApprox":     "cmd/bvcsim",
	"Result.VerifyExact":      "examples/quickstart",
	"Result.VerifyValidity":   "examples/simplexvote",
	"RoundBound":              "examples/robots",
	"RunAsyncCluster":         "examples/robots",
	"SafeAreaContains":        "internal/harness",
	"SafeAreaEmpty":           "internal/harness",
	"SafePoint":               "examples/mlagg",
	"Service":                 "examples/tcpcluster",
	"ServiceConfig":           "examples/tcpcluster",
	"ServiceResult":           "examples/tcpcluster",
	"ServiceStats":            "cmd/bvcload",
	"ServiceTransport":        "in ServiceConfig",
	"SimOptions":              "examples/quickstart",
	"SimulateApproxAsync":     "cmd/bvcsim",
	"SimulateCoordinateWise":  "examples/simplexvote",
	"SimulateExact":           "examples/quickstart",
	"SimulateRestrictedAsync": "cmd/bvcsim",
	"SimulateRestrictedSync":  "cmd/bvcsim",
	"Strategy":                "cmd/bvcsim",
	"TverbergPartition":       "cmd/tverberg",
	"Variant":                 "cmd/bvcsim",
	"Vector":                  "examples/quickstart",
}

// parseRoot parses the root package's non-test files with their comments.
func parseRoot(t *testing.T) (*token.FileSet, []*ast.File) {
	t.Helper()
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return fset, files
}

// TestAPIDocumented fails on any exported top-level declaration of the
// root package without a doc comment.
func TestAPIDocumented(t *testing.T) {
	fset, files := parseRoot(t)
	for _, p := range undocumented(fset, files) {
		t.Error(p)
	}
}

// TestAPIDocRule holds undocumented to the rule on a package with one
// documented and one undocumented declaration of each kind.
func TestAPIDocRule(t *testing.T) {
	const src = `package p

// Doc is documented.
func Doc() {}
func Bare() {}

// T is documented.
type T int
type U int

// M is documented.
func (T) M() {}
func (*T) N() {}
func unexported() {}

// Group docs cover every spec.
var (
	A = 1
	B = 2
)
var C = 3
const (
	// D is documented.
	D = 4
	E = 5 // E is documented.
	F = 6
)
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(undocumented(fset, []*ast.File{f}), "\n")
	want := strings.Join([]string{
		"p.go:5: exported function Bare has no doc comment",
		"p.go:9: exported type U has no doc comment",
		"p.go:13: exported function T.N has no doc comment",
		"p.go:21: exported var C has no doc comment",
		"p.go:26: exported const F has no doc comment",
	}, "\n")
	if got != want {
		t.Errorf("undocumented reported\n%s\nwant\n%s", got, want)
	}
}

// undocumented reports exported top-level declarations without doc
// comments. Grouped specs (var/const blocks, multi-name specs) count as
// documented when the enclosing GenDecl carries the comment, and a value
// spec also by its line comment, matching godoc's rendering.
func undocumented(fset *token.FileSet, files []*ast.File) []string {
	var problems []string
	report := func(pos token.Pos, kind, name string) {
		pp := fset.Position(pos)
		problems = append(problems, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", pp.Filename, pp.Line, kind, name))
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && d.Doc == nil {
					report(d.Pos(), "function", funcName(d))
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() && s.Doc == nil && d.Doc == nil {
							report(s.Pos(), "type", s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() && s.Doc == nil && d.Doc == nil && s.Comment == nil {
								report(n.Pos(), d.Tok.String(), n.Name)
							}
						}
					}
				}
			}
		}
	}
	return problems
}

// funcName is a func's name, prefixed with its receiver's type name for a
// method.
func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	t := d.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + d.Name.Name
	}
	return "?." + d.Name.Name
}

// TestAPIGolden renders every exported declaration of the root package,
// with its doc comment and, for a func, type or method, its caller, and
// compares the text with testdata/api.golden. Adding, removing or
// re-documenting an export therefore fails until the golden is rewritten
// with
//
//	go test -run TestAPIGolden -update .
//
// and the golden's diff is the API change to review. Each caller is
// checked against the code it names.
func TestAPIGolden(t *testing.T) {
	fset, files := parseRoot(t)
	pkg, err := doc.NewFromFiles(fset, files, "repro")
	if err != nil {
		t.Fatal(err)
	}
	r := &apiRenderer{fset: fset, decls: map[string]ast.Node{}}
	r.render(pkg)
	for name := range callers {
		if !slices.Contains(r.order, name) {
			t.Errorf("callers names %s, which is not an exported func, type or method", name)
		}
	}
	for _, name := range r.order {
		if err := r.checkCaller(name); err != nil {
			t.Error(err)
		}
	}

	path := filepath.Join("testdata", "api.golden")
	if *update {
		if err := os.WriteFile(path, r.buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := r.buf.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("the root API differs from %s at line %d:\n got: %q\nwant: %q\nreview the change, then rewrite the golden with -update", path, i+1, g, w)
			}
		}
	}
}

// apiRenderer writes the golden text of one package.
type apiRenderer struct {
	fset  *token.FileSet
	buf   bytes.Buffer
	decls map[string]ast.Node // func, type or method name → its declaration
	order []string            // the same names, in golden order
}

func (r *apiRenderer) render(pkg *doc.Package) {
	fmt.Fprintf(&r.buf, "// The exported API of package %s (module %s), rendered by api_test.go.\n", pkg.Name, pkg.ImportPath)
	fmt.Fprintf(&r.buf, "// Rewrite with: go test -run TestAPIGolden -update .\n")
	r.values(pkg.Consts)
	r.values(pkg.Vars)
	for _, f := range pkg.Funcs {
		r.decl(f.Decl, f.Doc, f.Name)
	}
	for _, typ := range pkg.Types {
		r.decl(typ.Decl, typ.Doc, typ.Name)
		r.values(typ.Consts)
		r.values(typ.Vars)
		for _, f := range typ.Funcs {
			r.decl(f.Decl, f.Doc, f.Name)
		}
		for _, f := range typ.Methods {
			r.decl(f.Decl, f.Doc, typ.Name+"."+f.Name)
		}
	}
}

func (r *apiRenderer) values(vs []*doc.Value) {
	for _, v := range vs {
		r.decl(v.Decl, v.Doc, "")
	}
}

// decl writes one declaration, its doc comment indented under it and,
// when name is set, the caller the callers table names for it.
func (r *apiRenderer) decl(node ast.Node, docText, name string) {
	r.buf.WriteByte('\n')
	// The printer keeps the comments of the fields and specs go/doc kept.
	cfg := printer.Config{Mode: printer.UseSpaces | printer.TabIndent, Tabwidth: 4}
	if err := cfg.Fprint(&r.buf, r.fset, node); err != nil {
		fmt.Fprintf(&r.buf, "<%v>", err)
	}
	r.buf.WriteByte('\n')
	for _, line := range strings.Split(strings.TrimRight(docText, "\n"), "\n") {
		if line == "" {
			r.buf.WriteString("\n")
		} else {
			fmt.Fprintf(&r.buf, "    %s\n", line)
		}
	}
	if name == "" {
		return
	}
	r.decls[name] = node
	r.order = append(r.order, name)
	caller, ok := callers[name]
	if !ok {
		caller = "(missing)"
	}
	fmt.Fprintf(&r.buf, "    caller: %s\n", caller)
}

// checkCaller checks the caller named for one export against the code.
func (r *apiRenderer) checkCaller(name string) error {
	caller, ok := callers[name]
	switch {
	case !ok:
		return fmt.Errorf("%s names no caller: add it to callers in api_test.go", name)
	case strings.HasPrefix(caller, "none"):
		return nil
	case strings.HasPrefix(caller, "in "):
		holder := strings.TrimPrefix(caller, "in ")
		node, ok := r.decls[holder]
		if !ok {
			return fmt.Errorf("%s: holder %s is not an export", name, holder)
		}
		held := false
		ast.Inspect(node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == name {
				held = true
			}
			return !held
		})
		if !held {
			return fmt.Errorf("%s: the declaration of %s does not hold it", name, holder)
		}
		return nil
	}
	used, err := usesExport(caller, name)
	if err != nil {
		return fmt.Errorf("%s: %v", name, err)
	}
	if !used {
		return fmt.Errorf("%s: no non-test file in %s uses it", name, caller)
	}
	return nil
}

// usesExport reports whether a non-test file of dir that imports the root
// package selects name from it: bvc.Name for a package-level name, and
// .Method on any value for "Type.Method".
func usesExport(dir, name string) (bool, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return false, err
	}
	if len(paths) == 0 {
		return false, fmt.Errorf("no Go files in %s", dir)
	}
	_, method, isMethod := strings.Cut(name, ".")
	fset := token.NewFileSet()
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return false, err
		}
		local := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "repro" {
				local = "bvc"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			continue
		}
		found := false
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return !found
			}
			x, _ := sel.X.(*ast.Ident)
			if isMethod && sel.Sel.Name == method || x != nil && x.Name == local && sel.Sel.Name == name {
				found = true
			}
			return !found
		})
		if found {
			return true, nil
		}
	}
	return false, nil
}
