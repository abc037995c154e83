// Command pkgdoclint enforces the repository's documentation floor, as a
// CI lint step next to gofmt/vet/staticcheck: every package (including
// every internal/* package and every command) must carry a package doc
// comment. The public library package's exported declarations are gated
// by the root package's API golden test (api_test.go), which fails on an
// export without a doc comment.
//
// Usage: go run ./internal/tools/pkgdoclint [dir]  (dir defaults to ".")
package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	problems, err := lint(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pkgdoclint:", err)
		os.Exit(1)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Println(p)
		}
		fmt.Fprintf(os.Stderr, "pkgdoclint: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
}

func lint(root string) ([]string, error) {
	byDir := map[string][]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			byDir[dir] = append(byDir[dir], path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var dirs []string
	for d := range byDir {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)

	var problems []string
	for _, dir := range dirs {
		hasDoc := map[string]bool{} // package name → one of its files carries a doc comment
		fset := token.NewFileSet()
		for _, path := range byDir[dir] {
			f, err := parser.ParseFile(fset, path, nil, parser.PackageClauseOnly|parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			hasDoc[f.Name.Name] = hasDoc[f.Name.Name] || f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != ""
		}
		var names []string
		for name := range hasDoc {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if !hasDoc[name] {
				problems = append(problems, fmt.Sprintf("%s: package %s has no package doc comment", dir, name))
			}
		}
	}
	return problems, nil
}
