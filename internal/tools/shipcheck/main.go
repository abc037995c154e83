// Command shipcheck counts the non-test code that the module's binaries
// actually link, as a CI lint step next to pkgdoclint.
//
// It builds every main package of the module, plus the benchmark module
// under bench/, with inlining off (-gcflags=all=-l, so a called function
// keeps its own symbol), reads their text symbols with `go tool nm`, and
// matches them against every non-test func declaration of the module. A
// function's lines run from the start of its doc comment to its closing
// brace; its body lines, printed beside them, from the func keyword. It
// prints the linked and unlinked counts, lists every unlinked
// function, and exits non-zero when an unlinked function is not on the
// allow-list below or an allow-list entry is linked or gone.
//
// Usage: go run ./internal/tools/shipcheck  (from the module root)
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// allowed names the functions that may stay unlinked, each with the
// reason it is kept: public root API, a test oracle or helper that the
// tests of several packages share, or an interface method. Keys are
// import path, receiver type (if any) and name, dot-separated, as
// shipcheck prints them.
var allowed = map[string]string{
	"repro.RadonPartition":                       "public root API",
	"repro.toGeometrySlice":                      "public root API: RadonPartition's argument conversion",
	"repro.NewGammaEngine":                       "public root API",
	"repro.GammaEngine.Counters":                 "public root API",
	"repro/internal/chaos.Injector.HealAll":      "manual fault control for the chaos, service and verify tests",
	"repro/internal/chaos.Injector.Partition":    "manual fault control for the chaos and verify tests",
	"repro/internal/geometry.Key":                "Γ memo key oracle for the core tests",
	"repro/internal/geometry.MustMultisetOf":     "fixture constructor for the geometry, safearea and tverberg tests",
	"repro/internal/geometry.ViewOf":             "used by the core tests' uncached Γ-point oracle",
	"repro/internal/geometry.Multiset.Subset":    "used by the geometry and safearea tests",
	"repro/internal/geometry.Multiset.Equal":     "agreement check for the core tests",
	"repro/internal/geometry.Multiset.Bounds":    "SpreadInf's bounding box",
	"repro/internal/geometry.Multiset.SpreadInf": "ε-agreement check for the core, geometry and harness tests",
	"repro/internal/harness.Table.String":        "interface method: fmt.Stringer",
	"repro/internal/lp.Problem.NumRows":          "program size for the verify fuzz tests",
	"repro/internal/lp.Problem.SolveDense":       "dense-tableau oracle for the lp, tverberg and verify tests",
	"repro/internal/sim.engineAPI.N":             "interface method: sim.API",
	"repro/internal/sim.engineAPI.Now":           "interface method: sim.API",
	"repro/internal/tverberg.LiftAffine":         "lift oracle for the tverberg and safearea tests",
	"repro/internal/tverberg.Residual":           "certificate oracle for the tverberg and safearea tests",
}

func main() {
	problems, err := check()
	if err != nil {
		fmt.Fprintln(os.Stderr, "shipcheck:", err)
		os.Exit(1)
	}
	if problems > 0 {
		fmt.Fprintf(os.Stderr, "shipcheck: %d problem(s)\n", problems)
		os.Exit(1)
	}
}

// fn is one non-test func declaration.
type fn struct {
	key   string // import path + "." + [receiver type + "."] + name
	pos   string // file:line of the declaration
	lines int    // doc comment through closing brace
	body  int    // func keyword through closing brace
}

// tally counts functions and their lines.
type tally struct{ funcs, lines, body int }

func (t *tally) add(f fn) {
	t.funcs++
	t.lines += f.lines
	t.body += f.body
}

func (t tally) String() string {
	return fmt.Sprintf("%d functions, %d lines (%d from func to brace)", t.funcs, t.lines, t.body)
}

// check prints every unlinked function and the totals, and returns the
// number of problems: unlinked functions off the allow-list and stale
// allow-list entries.
func check() (int, error) {
	funcs, mains, err := scanModule()
	if err != nil {
		return 0, err
	}
	tmp, err := os.MkdirTemp("", "shipcheck")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(tmp)

	linked := map[string]bool{}
	for i, m := range mains {
		if err := link(".", m, m, filepath.Join(tmp, strconv.Itoa(i)), linked); err != nil {
			return 0, err
		}
	}
	// bench/ is its own module: only what it links of this one counts.
	if err := link("bench", ".", "repro/bench", filepath.Join(tmp, "bench"), linked); err != nil {
		return 0, err
	}

	problems := 0
	var in, out tally
	unlinked := map[string]bool{}
	for _, f := range funcs {
		if linked[f.key] {
			in.add(f)
			continue
		}
		out.add(f)
		unlinked[f.key] = true
		reason, ok := allowed[f.key]
		if !ok {
			reason = "NOT ALLOWED: linked by no binary"
			problems++
		}
		fmt.Printf("%s: %s (%d lines): %s\n", f.pos, f.key, f.lines, reason)
	}
	var stale []string
	for k := range allowed {
		if !unlinked[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	for _, k := range stale {
		fmt.Printf("allow-list entry %s is linked or no longer declared: remove it\n", k)
		problems++
	}
	fmt.Printf("%d binaries; linked: %s; unlinked: %s\n", len(mains)+1, in, out)
	return problems, nil
}

// scanModule returns the func declarations of the module's non-test
// files, as built by default (build constraints applied), and the import
// paths of its main packages.
func scanModule() (funcs []fn, mains []string, err error) {
	list := exec.Command("go", "list", "-f", "{{.ImportPath}}\t{{.Name}}\t{{.Dir}}\t{{join .GoFiles \"\\t\"}}", "./...")
	list.Stderr = os.Stderr
	out, err := list.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list: %w", err)
	}
	wd, err := os.Getwd()
	if err != nil {
		return nil, nil, err
	}
	fset := token.NewFileSet()
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		if len(f) < 4 {
			return nil, nil, fmt.Errorf("go list: unexpected line %q", line)
		}
		if f[1] == "main" {
			mains = append(mains, f[0])
		}
		for _, name := range f[3:] {
			if name == "" { // a package with test files only
				continue
			}
			path, err := filepath.Rel(wd, filepath.Join(f[2], name))
			if err != nil {
				return nil, nil, err
			}
			file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return nil, nil, err
			}
			funcs = append(funcs, funcsOf(fset, f[0], file)...)
		}
	}
	return funcs, mains, nil
}

// funcsOf returns the func declarations of one parsed file of the
// package at importPath.
func funcsOf(fset *token.FileSet, importPath string, f *ast.File) []fn {
	var fns []fn
	for _, decl := range f.Decls {
		d, ok := decl.(*ast.FuncDecl)
		if !ok || d.Name.Name == "_" {
			continue
		}
		key := importPath + "."
		if d.Recv != nil && len(d.Recv.List) > 0 {
			key += recvType(d.Recv.List[0].Type) + "."
		}
		key += d.Name.Name
		start := d.Pos()
		if d.Doc != nil {
			start = d.Doc.Pos()
		}
		decl, end := fset.Position(d.Pos()), fset.Position(d.End()).Line
		fns = append(fns, fn{
			key:   key,
			pos:   fmt.Sprintf("%s:%d", decl.Filename, decl.Line),
			lines: end - fset.Position(start).Line + 1,
			body:  end - decl.Line + 1,
		})
	}
	return fns
}

// recvType is a receiver's type name without pointer or type parameters.
func recvType(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return "?"
		}
	}
}

// link builds the main package pkgArg in dir with inlining off and adds
// the keys of its text symbols to linked. Symbols of package main are
// credited to mainPath.
func link(dir, pkgArg, mainPath, bin string, linked map[string]bool) error {
	build := exec.Command("go", "build", "-buildvcs=false", "-gcflags=all=-l", "-o", bin, pkgArg)
	build.Dir = dir
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building %s: %w", mainPath, err)
	}
	nm := exec.Command("go", "tool", "nm", bin)
	nm.Stderr = os.Stderr
	out, err := nm.Output()
	if err != nil {
		return fmt.Errorf("go tool nm %s: %w", mainPath, err)
	}
	addSymbols(out, mainPath, linked)
	return nil
}

// addSymbols adds the keys of the text symbols in nm output to linked.
// A line is "address type name"; a name may hold spaces (a generic
// shape such as go.shape.struct { X int }).
func addSymbols(nmOutput []byte, mainPath string, linked map[string]bool) {
	for _, line := range strings.Split(string(nmOutput), "\n") {
		f := strings.SplitN(strings.TrimSpace(line), " ", 3)
		if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
			continue
		}
		if key, ok := symbolKey(f[2], mainPath); ok {
			linked[key] = true
		}
	}
}

// symbolKey maps a text symbol to the key of the func declaration whose
// code it is: type arguments, the pointer-receiver wrapper of a value
// method, method values (-fm) and closures (.funcN, .deferwrapN,
// .gowrapN and their nested .N) all map to the declaring func.
func symbolKey(sym, mainPath string) (string, bool) {
	sym = strings.TrimSuffix(stripBrackets(sym), "-fm")
	slash := strings.LastIndex(sym, "/")
	dot := strings.Index(sym[slash+1:], ".")
	if dot < 0 {
		return "", false
	}
	path, rest := sym[:slash+1+dot], sym[slash+1+dot+1:]
	if path == "main" {
		path = mainPath
	}
	rest = strings.NewReplacer("(*", "", ")", "").Replace(rest)
	parts := strings.Split(rest, ".")
	for len(parts) > 1 && isClosurePart(parts[len(parts)-1]) {
		parts = parts[:len(parts)-1]
	}
	for _, p := range parts {
		if p == "" { // compiler-generated, such as ..dict.F or ..stmp_1
			return "", false
		}
	}
	return path + "." + strings.Join(parts, "."), true
}

// stripBrackets drops every [...] group, nesting included.
func stripBrackets(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// isClosurePart reports whether p is a closure's symbol suffix: funcN,
// deferwrapN, gowrapN, or the bare N of a nested closure.
func isClosurePart(p string) bool {
	for _, prefix := range []string{"func", "deferwrap", "gowrap", ""} {
		if n, ok := strings.CutPrefix(p, prefix); ok && n != "" && strings.Trim(n, "0123456789") == "" {
			return true
		}
	}
	return false
}
