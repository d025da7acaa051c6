// Command pgllint machine-checks the codebase's persistence and
// concurrency invariants (see internal/lint/doc.go for the rule
// catalogue).
//
//	pgllint [packages]
//
// It lists the packages (default ./...) and their tests with go list,
// type-checks them, runs every analyzer over each file once, and prints
// one line per finding:
//
//	file:line:col: analyzer: message
//
// It exits 0 when there is nothing to report, 1 on any finding, and 2
// when go list reports a package error or a package does not
// type-check: no package is ever skipped silently.
//
// Intentional exceptions are suppressed in-code, never out-of-band:
//
//	//pgllint:ignore <analyzer> <reason>
//
// on the violating line or the line above. The reason is mandatory.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"github.com/pangolin-go/pangolin/internal/lint"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: pgllint [packages]\n")
	}
	flag.Parse()
	os.Exit(run(".", flag.Args(), os.Stdout, os.Stderr))
}

// finding is one diagnostic, resolved to its file position.
type finding struct {
	pos      token.Position
	analyzer string
	message  string
}

// run lints patterns, listed from dir, and returns the exit status.
// File names print relative to dir when they lie under it.
func run(dir string, patterns []string, stdout, stderr io.Writer) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(dir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "pgllint: %v\n", err)
		return 2
	}
	var found []finding
	for _, p := range pkgs {
		for _, d := range p.Run(lint.Analyzers()...) {
			found = append(found, finding{p.Fset.Position(d.Pos), d.Analyzer, d.Message})
		}
	}
	slices.SortFunc(found, func(a, b finding) int {
		return cmp.Or(
			cmp.Compare(a.pos.Filename, b.pos.Filename),
			cmp.Compare(a.pos.Line, b.pos.Line),
			cmp.Compare(a.pos.Column, b.pos.Column),
			cmp.Compare(a.analyzer, b.analyzer),
			cmp.Compare(a.message, b.message),
		)
	})
	abs, err := filepath.Abs(dir)
	if err != nil {
		fmt.Fprintf(stderr, "pgllint: %v\n", err)
		return 2
	}
	for _, f := range found {
		name := f.pos.Filename
		if rel, err := filepath.Rel(abs, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = rel
		}
		fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", name, f.pos.Line, f.pos.Column, f.analyzer, f.message)
	}
	if len(found) > 0 {
		return 1
	}
	return 0
}
