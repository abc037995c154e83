package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/seed1.golden from the current code")

// TestStdoutGolden holds the full default run (every experiment, seed 1)
// to the tables recorded in testdata/seed1.golden, byte for byte. A change
// that is meant to move a table rewrites the file with
//
//	go test ./cmd/bvcbench -run TestStdoutGolden -update
//
// and the diff of the golden shows what moved.
func TestStdoutGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The golden was recorded on amd64. Compilers for other
		// architectures (arm64, ppc64le, s390x, riscv64) fuse x*y+z into
		// one multiply-add with a single rounding, so the printed digits
		// may differ there without anything being wrong.
		t.Skipf("golden recorded on amd64; %s fuses multiply-adds", runtime.GOARCH)
	}
	var got bytes.Buffer
	if err := run(nil, &got); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "seed1.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	g, w := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			t.Fatalf("stdout differs from %s at line %d (%d lines, want %d):\n got: %s\nwant: %s",
				path, i+1, len(g), len(w), gl, wl)
		}
	}
}
