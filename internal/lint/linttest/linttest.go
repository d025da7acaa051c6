// Package linttest runs a pgllint analyzer over a testdata package and
// checks its diagnostics against // want comments, in the style of
// golang.org/x/tools/go/analysis/analysistest.
//
// Packages load through lint.Load, the loader cmd/pgllint runs, so the
// tests exercise the same listing, export-data import and type-checking
// path as `make lint`.
//
// Expectations use analysistest syntax: a comment
//
//	// want `regexp` `regexp`...
//
// on a line declares that the analyzer must report diagnostics on that
// line matching each regexp, in any order. Lines without a want
// comment must produce no diagnostic.
package linttest

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/pangolin-go/pangolin/internal/lint"
)

// TestData returns the absolute path of the calling test's testdata
// directory.
func TestData() string {
	dir, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return dir
}

// Run loads each package directory testdata/src/<pkg>, applies a, and
// compares the diagnostics against the packages' want comments.
func Run(t *testing.T, testdata string, a *lint.Analyzer, pkgs ...string) {
	t.Helper()
	for _, pkg := range pkgs {
		dir := filepath.Join(testdata, "src", pkg)
		t.Run(a.Name+"/"+pkg, func(t *testing.T) {
			t.Helper()
			loaded, err := lint.Load(dir, ".")
			if err != nil {
				t.Fatalf("loading %s: %v", dir, err)
			}
			if len(loaded) == 0 {
				t.Fatalf("loading %s: no packages", dir)
			}
			for _, p := range loaded {
				checkWants(t, p, p.Run(a))
			}
		})
	}
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// checkWants diffs diagnostics against want comments.
func checkWants(t *testing.T, pkg *lint.Package, diags []lint.Diagnostic) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := map[key][]*regexp.Regexp{}
	fset := pkg.Fset
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				p := fset.Position(c.Pos())
				for _, pat := range splitPatterns(m[1]) {
					rx, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", p.Filename, p.Line, pat, err)
					}
					wants[key{p.Filename, p.Line}] = append(wants[key{p.Filename, p.Line}], rx)
				}
			}
		}
	}
	for _, d := range diags {
		p := fset.Position(d.Pos)
		k := key{p.Filename, p.Line}
		matched := false
		for i, rx := range wants[k] {
			if rx.MatchString(d.Message) {
				wants[k] = append(wants[k][:i], wants[k][i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: %s", p.Filename, p.Line, d.Message)
		}
	}
	for k, rest := range wants {
		for _, rx := range rest {
			t.Errorf("%s:%d: no diagnostic matching %q", k.file, k.line, rx)
		}
	}
}

// splitPatterns parses a sequence of Go-quoted or backquoted strings.
func splitPatterns(s string) []string {
	var pats []string
	s = strings.TrimSpace(s)
	for s != "" {
		var quote byte
		switch s[0] {
		case '`', '"':
			quote = s[0]
		default:
			// Unquoted trailing text (e.g. prose in a comment) ends
			// the pattern list.
			return pats
		}
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			return pats
		}
		raw := s[:end+2]
		pat, err := strconv.Unquote(raw)
		if err != nil {
			pat = raw[1 : len(raw)-1]
		}
		pats = append(pats, pat)
		s = strings.TrimSpace(s[end+2:])
	}
	return pats
}
