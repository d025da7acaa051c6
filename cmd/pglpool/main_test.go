package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestInjectChecksRange: inject refuses an offset or length outside the
// pool, one whose end wraps included, with an error and an untouched
// file; an offset inside the pool is injected.
func TestInjectChecksRange(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.pgl")
	if err := create([]string{"-zones", "1", path}); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-page", "99999999999"},
		{"-scribble", "100", "-len", "18446744073709551615"},
	} {
		err := inject(append(args, path))
		if err == nil || !strings.Contains(err.Error(), "outside") {
			t.Fatalf("inject %v = %v, want an out-of-range error", args, err)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("inject %v changed the pool file", args)
		}
	}
	if err := inject([]string{"-scribble", "100", "-len", "16", path}); err != nil {
		t.Fatalf("in-range scribble: %v", err)
	}
	if after, err := os.ReadFile(path); err != nil || bytes.Equal(before, after) {
		t.Fatalf("in-range scribble left the pool file unchanged (%v)", err)
	}
}
