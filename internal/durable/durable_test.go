package durable

import (
	"bytes"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
)

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

func noTemp(t *testing.T, path string) {
	t.Helper()
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("temp file left behind: stat err = %v", err)
	}
}

// TestWriteFileReplaces: a successful write replaces the old content
// and leaves no temp file.
func TestWriteFileReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, []byte("old contents"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, writeString("new")); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "new" {
		t.Fatalf("after WriteFile: %q, %v; want \"new\"", got, err)
	}
	noTemp(t, path)
}

// TestWriteFileFailedWriteKeepsOld: when the callback fails part-way,
// WriteFile returns its error, removes the temp file, and leaves the old
// file byte-identical.
func TestWriteFileFailedWriteKeepsOld(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	old := []byte("the committed image")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFile(path, func(w io.Writer) error {
		if err := writeString("torn")(w); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteFile = %v, want the callback's error", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("old file after a failed write: %q, %v; want %q", got, err, old)
	}
	noTemp(t, path)
}

// TestWriteFileFailedRenameRemovesTemp: a rename that fails (the target
// is a directory) removes the temp file too.
func TestWriteFileFailedRenameRemovesTemp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, writeString("x")); err == nil {
		t.Fatal("WriteFile onto a directory succeeded")
	}
	noTemp(t, path)
}

// holesSupported reports whether files in dir can have holes: a file
// extended by Truncate alone allocates no blocks there.
func holesSupported(t *testing.T, dir string) bool {
	t.Helper()
	f, err := os.CreateTemp(dir, "probe")
	if err != nil {
		t.Fatal(err)
	}
	defer os.Remove(f.Name())
	defer f.Close()
	if err := f.Truncate(1 << 20); err != nil {
		t.Fatal(err)
	}
	return allocated(t, f.Name()) < 1<<20
}

// allocated returns the bytes of disk the file at path occupies, or -1
// where the platform does not report it.
func allocated(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := fi.Sys().(*syscall.Stat_t)
	if !ok {
		return -1
	}
	return st.Blocks * 512
}

// TestWriteFileSparseRoundTrip: streams that mix whole zero blocks,
// zero runs that start or end inside a block, short non-zero writes and
// writes of every length at unaligned offsets read back byte for byte —
// including a stream that ends in zeros, whose length only Truncate
// sets. On a filesystem with holes, a stream with a long zero run
// occupies less disk than its length.
func TestWriteFileSparseRoundTrip(t *testing.T) {
	dir := t.TempDir()
	holes := holesSupported(t, dir)
	if !holes {
		t.Log("filesystem reports no holes: checking contents only")
	}
	rng := rand.New(rand.NewSource(1))
	for i := range 200 {
		var want []byte
		for range 1 + rng.Intn(12) {
			n := rng.Intn(3 * blockSize)
			switch rng.Intn(4) {
			case 0: // whole zero blocks, often many
				n = blockSize * (1 + rng.Intn(16))
				want = append(want, make([]byte, n)...)
			case 1: // a zero run of any length
				want = append(want, make([]byte, n)...)
			case 2: // a short non-zero write
				want = append(want, byte(1+rng.Intn(255)))
			default:
				seg := make([]byte, n)
				rng.Read(seg)
				want = append(want, seg...)
			}
		}
		if i%2 == 0 { // a long aligned-or-not zero run ends every other stream
			want = append(want, make([]byte, 16*blockSize+rng.Intn(blockSize))...)
		}
		path := filepath.Join(dir, "f")
		err := WriteFile(path, func(w io.Writer) error {
			for rest := want; len(rest) > 0; {
				n := min(len(rest), 1+rng.Intn(3*blockSize))
				if rng.Intn(4) == 0 {
					n = min(len(rest), 1+rng.Intn(16))
				}
				if _, err := w.Write(rest[:n]); err != nil {
					return err
				}
				rest = rest[n:]
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("stream %d: read back %d bytes, wrote %d, contents differ", i, len(got), len(want))
		}
		if holes && i%2 == 0 {
			if a := allocated(t, path); a >= int64(len(want)) {
				t.Fatalf("stream %d: %d bytes allocated for a %d-byte file ending in 64 KB of zeros", i, a, len(want))
			}
		}
		noTemp(t, path)
	}
}

// TestNoRawRename: every non-test os.Rename in the module is the one in
// WriteFile, so no file can be replaced without the temp fsync before
// the rename and the directory fsync after it. Nested modules and
// testdata are not part of the module and are skipped.
func TestNoRawRename(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found: %v", err)
	}
	helper := filepath.Join(root, "internal", "durable", "durable.go")
	fset := token.NewFileSet()
	inHelper := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		for _, pos := range renames(t, fset, path) {
			if path == helper {
				inHelper++
				continue
			}
			rel, _ := filepath.Rel(root, pos.Filename)
			t.Errorf("%s:%d: raw os.Rename: replace files with durable.WriteFile", rel, pos.Line)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if inHelper != 1 {
		t.Fatalf("found %d os.Rename calls in WriteFile, want 1: the scan is not seeing them", inHelper)
	}
}

// renames returns the position of every reference to os.Rename in the
// file at path, whatever name the file imports os under, and of a dot
// import of os.
func renames(t *testing.T, fset *token.FileSet, path string) []token.Position {
	t.Helper()
	f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg := ""
	var out []token.Position
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "os" {
			pkg = "os"
			if imp.Name != nil {
				pkg = imp.Name.Name
			}
			if pkg == "." { // a dot import hides Rename from the scan
				out = append(out, fset.Position(imp.Pos()))
			}
		}
	}
	if pkg == "" || pkg == "_" || pkg == "." {
		return out
	}
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Rename" {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); ok && x.Name == pkg {
			out = append(out, fset.Position(sel.Pos()))
		}
		return true
	})
	return out
}
