package pangolin

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoGoroutineBeneathPool: no non-test file of this package, or of any
// package of this module it imports, starts a goroutine. Every commit,
// scrub step, online repair and save then runs inside a call on a
// caller's goroutine, which is what lets a ReadView rest on one rule: the
// caller excludes every mutation for the length of a view read. A
// goroutine beneath the pool would be a mutator no caller's gate covers.
func TestNoGoroutineBeneathPool(t *testing.T) {
	const module = "github.com/pangolin-go/pangolin"
	fset := token.NewFileSet()
	seen := map[string]bool{}
	for queue := []string{"."}; len(queue) > 0; {
		dir := queue[0]
		queue = queue[1:]
		if seen[dir] {
			continue
		}
		seen[dir] = true
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				p, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if rel, ok := strings.CutPrefix(p, module+"/"); ok {
					queue = append(queue, filepath.FromSlash(rel))
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					t.Errorf("%s: go statement beneath a pool: run the work on the caller's goroutine", fset.Position(g.Pos()))
				}
				return true
			})
		}
	}
	if !seen[filepath.Join("internal", "core")] {
		t.Fatalf("the import walk never reached internal/core (saw %d packages): the scan is not seeing the engine", len(seen))
	}
}
