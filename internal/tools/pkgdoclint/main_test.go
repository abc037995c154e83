package main

import "testing"

// TestModuleDocumented runs the lint over the module root, as CI's
// "Package docs" step does, so a missing package doc comment fails
// go test ./... too.
func TestModuleDocumented(t *testing.T) {
	problems, err := lint("../../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}
