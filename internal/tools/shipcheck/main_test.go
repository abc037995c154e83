package main

import (
	"go/parser"
	"go/token"
	"reflect"
	"sort"
	"testing"
)

// fixture declares one function of each shape whose symbols the cases
// below name.
const fixture = `package fix

type memoTable[V any] struct{ v V }

// get has a doc comment,
// two lines long.
func (t *memoTable[V]) get() V { return t.v }

func (t *memoTable[V]) reset() {
	var zero V
	t.v = zero
}

type Vector []float64

func (v Vector) Len() int { return len(v) }

func drive() {
	defer func() {}()
}

func spawn() { go func() {}() }

func Uncalled() {}
`

func fixtureFuncs(t *testing.T) []fn {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", fixture, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return funcsOf(fset, "repro/fix", f)
}

func TestFuncsOfLines(t *testing.T) {
	got := map[string][2]int{}
	for _, f := range fixtureFuncs(t) {
		got[f.key] = [2]int{f.lines, f.body}
	}
	want := map[string][2]int{
		"repro/fix.memoTable.get":   {3, 1},
		"repro/fix.memoTable.reset": {4, 4},
		"repro/fix.Vector.Len":      {1, 1},
		"repro/fix.drive":           {3, 3},
		"repro/fix.spawn":           {1, 1},
		"repro/fix.Uncalled":        {1, 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("lines per func = %v, want %v", got, want)
	}
}

func TestSymbolMatching(t *testing.T) {
	cases := []struct {
		name     string
		nm       string
		mainPath string
		linked   []string
	}{
		{
			name:   "generic instantiation",
			nm:     "  4a1f20 T repro/fix.(*memoTable[go.shape.uint64]).get\n",
			linked: []string{"repro/fix.memoTable.get"},
		},
		{
			name:   "generic shape with spaces in its name",
			nm:     "  4a1f80 T repro/fix.(*memoTable[go.shape.struct { repro/fix.pt repro/fix.Vector; repro/fix.ok bool }]).reset\n",
			linked: []string{"repro/fix.memoTable.reset"},
		},
		{
			name:   "value method linked only as its pointer wrapper",
			nm:     "  4a2000 T repro/fix.(*Vector).Len\n",
			linked: []string{"repro/fix.Vector.Len"},
		},
		{
			name: "closures and wrappers",
			nm: "  4a3000 T repro/fix.drive.func1\n" +
				"  4a3040 T repro/fix.drive.deferwrap1\n" +
				"  4a3080 t repro/fix.spawn.gowrap1\n" +
				"  4a30c0 T repro/fix.spawn.func1.1\n",
			linked: []string{"repro/fix.drive", "repro/fix.spawn"},
		},
		{
			name:     "package main credited to its import path",
			nm:       "  4a4000 T main.drive\n",
			mainPath: "repro/fix",
			linked:   []string{"repro/fix.drive"},
		},
		{
			name: "non-text symbols, dictionaries and other packages",
			nm: "  5b0000 R repro/fix.Uncalled\n" +
				"  4a5000 T repro/fix..dict.memoTable[uint64]\n" +
				"           U repro/fix.spawn\n" +
				"  4a5040 T repro/fixed.drive\n",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			linked := map[string]bool{}
			addSymbols([]byte(tc.nm), tc.mainPath, linked)
			var got []string
			for _, f := range fixtureFuncs(t) {
				if linked[f.key] {
					got = append(got, f.key)
				}
			}
			// No case names Uncalled: it is the negative control, and must
			// come out unlinked every time.
			want := append([]string(nil), tc.linked...)
			sort.Strings(got)
			sort.Strings(want)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("linked = %v, want %v", got, want)
			}
		})
	}
}
