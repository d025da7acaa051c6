package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// seeded holds one violation per analyzer. The errwrap one sits in an
// in-package test file and the stopbool one in an external test package
// that reaches a test-only export, so both test variants are loaded; the
// reasoned ignore is silent and the reasonless one is diagnosed.
var seeded = map[string]string{
	"internal/store/store.go": `package store

type Tx struct{}

func (*Tx) Get(oid uint64) ([]byte, error) { return make([]byte, 8), nil }
func (*Tx) Commit() error                  { return nil }

func scribble(tx *Tx) error {
	b, err := tx.Get(1)
	if err != nil {
		return err
	}
	b[0] = 1
	return tx.Commit()
}

func walk(fn func(int) bool) {
	fn(1)
}

func notify(fn func(int) bool) {
	//pgllint:ignore stopbool best-effort notification; there is nothing left to stop
	fn(2)
}

func abandon(tx *Tx) {
	//pgllint:ignore txwrite
	tx.Commit()
}
`,
	"internal/store/store_test.go": `package store

import "fmt"

func Wrap(err error) error { return fmt.Errorf("store: %v", err) }
`,
	"internal/store/ext_test.go": `package store_test

import "example.com/seeded/internal/store"

func each(fn func(error) bool) {
	defer fn(store.Wrap(nil))
}
`,
}

func TestSeededFindings(t *testing.T) {
	stdout, stderr, code := lintModule(t, seeded)
	want := []string{
		"internal/store/ext_test.go:6:8: stopbool: callback fn called via go/defer discards its bool (continue) result: the early stop can never be propagated",
		"internal/store/store.go:13:2: txwrite: write to read-only Tx.Get snapshot \"b\"; open the object for writing with Open or AddRange instead",
		"internal/store/store.go:18:2: stopbool: callback fn's bool (continue) result discarded: false means the caller asked the iteration to stop",
		"internal/store/store.go:28:2: txwrite: //pgllint:ignore txwrite is missing its reason: intentional exceptions must say why (not suppressing)",
		"internal/store/store.go:28:2: txwrite: Tx.Commit error discarded: commit can fail (log full, media fault) and the transaction is not durable until it returns nil",
		"internal/store/store_test.go:5:61: errwrap: error formatted with %v instead of %w: the cause is severed and errors.Is/IsCorruption/IsPoison stop matching through this wrap",
	}
	if w := strings.Join(want, "\n") + "\n"; stdout != w {
		t.Errorf("findings:\n%swant:\n%s", stdout, w)
	}
	if code != 1 || stderr != "" {
		t.Errorf("exit %d, stderr %q; want exit 1 and no stderr", code, stderr)
	}
}

func TestCleanModule(t *testing.T) {
	stdout, stderr, code := lintModule(t, map[string]string{
		"internal/store/store.go": "package store\n\nfunc Double(x int) int { return 2 * x }\n",
		"internal/store/store_test.go": "package store\n\nimport \"testing\"\n\n" +
			"func TestDouble(t *testing.T) {\n\tif Double(2) != 4 {\n\t\tt.Fatal(\"Double(2) != 4\")\n\t}\n}\n",
	})
	if code != 0 || stdout != "" || stderr != "" {
		t.Errorf("exit %d, stdout %q, stderr %q; want exit 0 and no output", code, stdout, stderr)
	}
}

func TestTypeErrorExits2(t *testing.T) {
	stdout, stderr, code := lintModule(t, map[string]string{
		"internal/store/store.go": "package store\n\nvar N int = \"one\"\n",
	})
	if code != 2 || stdout != "" || !strings.Contains(stderr, "store.go:3:13") {
		t.Errorf("exit %d, stdout %q, stderr %q; want exit 2 naming store.go:3:13", code, stdout, stderr)
	}
}

// TestSizesFollowGOARCH type-checks a constant that only fits a 4-byte
// pointer: it must pass under GOARCH=386 whatever the host is.
func TestSizesFollowGOARCH(t *testing.T) {
	t.Setenv("GOARCH", "386")
	stdout, stderr, code := lintModule(t, map[string]string{
		"internal/word/word.go": "package word\n\nimport \"unsafe\"\n\nvar Pad [4 - unsafe.Sizeof(uintptr(0))]byte\n",
	})
	if code != 0 || stdout != "" || stderr != "" {
		t.Errorf("exit %d, stdout %q, stderr %q; want exit 0 and no output", code, stdout, stderr)
	}
}

// lintModule writes files into a fresh module example.com/seeded with
// no requirements and lints all of it offline.
func lintModule(t *testing.T, files map[string]string) (stdout, stderr string, code int) {
	t.Helper()
	t.Setenv("GOPROXY", "off")
	t.Setenv("GOWORK", "off")
	t.Setenv("GOFLAGS", "")
	dir := t.TempDir()
	gomod := "module example.com/seeded\n\ngo 1.24\n"
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(gomod), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out, errb bytes.Buffer
	code = run(dir, nil, &out, &errb)
	return out.String(), errb.String(), code
}
