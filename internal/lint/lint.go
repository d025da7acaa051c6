// Package lint holds pgllint's analyzers: machine checks for the
// persistence and concurrency invariants this codebase relies on but
// the compiler cannot see. See doc.go for the catalogue of rules, the
// bug class each one prevents, and the PR where that class last
// appeared in review.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// An Analyzer is one pgllint rule. Run inspects one package and reports
// what it finds through the pass.
type Analyzer struct {
	Name string // names the rule in diagnostics and //pgllint:ignore
	Doc  string
	Run  func(*Pass)
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Analyzers returns every pgllint analyzer, in the order cmd/pgllint
// runs them.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		ErrWrap,
		StopBool,
		TxWrite,
	}
}

// ignorePrefix is the in-code suppression marker:
//
//	//pgllint:ignore <analyzer>[,<analyzer>...] <reason>
//
// on the violating line or on its own line immediately above it. The
// reason is mandatory: an intentional exception must say why.
const ignorePrefix = "//pgllint:ignore"

var ignoreRE = regexp.MustCompile(`^//pgllint:ignore\s+([\w,]+)(?:\s+(\S.*))?$`)

// ignoreSite records one suppression comment.
type ignoreSite struct {
	names  []string // analyzers it names
	reason string   // "" when the mandatory reason is missing
	pos    token.Pos
}

// reporter wraps a pass with //pgllint:ignore handling for one
// analyzer. Every analyzer reports through one of these.
type reporter struct {
	pass     *Pass
	name     string
	sites    map[string]map[int]*ignoreSite // filename -> line -> site
	reported map[*ignoreSite]bool           // bad sites already diagnosed
}

func newReporter(pass *Pass) *reporter {
	r := &reporter{
		pass:     pass,
		name:     pass.Analyzer.Name,
		sites:    map[string]map[int]*ignoreSite{},
		reported: map[*ignoreSite]bool{},
	}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				p := pass.Fset.Position(c.Pos())
				m := ignoreRE.FindStringSubmatch(text)
				site := &ignoreSite{pos: c.Pos()}
				if m != nil {
					site.names = strings.Split(m[1], ",")
					site.reason = strings.TrimSpace(m[2])
				}
				if r.sites[p.Filename] == nil {
					r.sites[p.Filename] = map[int]*ignoreSite{}
				}
				r.sites[p.Filename][p.Line] = site
			}
		}
	}
	return r
}

func (s *ignoreSite) covers(name string) bool {
	for _, n := range s.names {
		if n == name {
			return true
		}
	}
	return false
}

// suppressed reports whether a diagnostic at pos is covered by an
// ignore comment (with a reason) on the same line or the line above. A
// comment that tries to cover the diagnostic but is missing its
// mandatory reason — or names no analyzer at all — does not suppress,
// and is itself diagnosed once, at the violation it fails to suppress.
func (r *reporter) suppressed(pos token.Pos) bool {
	p := r.pass.Fset.Position(pos)
	lines := r.sites[p.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{p.Line, p.Line - 1} {
		site := lines[line]
		if site == nil {
			continue
		}
		switch {
		case site.covers(r.name) && site.reason != "":
			return true
		case site.covers(r.name):
			if !r.reported[site] {
				r.reported[site] = true
				r.pass.Reportf(pos, "%s %s is missing its reason: intentional exceptions must say why (not suppressing)", ignorePrefix, r.name)
			}
		case len(site.names) == 0:
			if !r.reported[site] {
				r.reported[site] = true
				r.pass.Reportf(pos, "malformed %s comment (want %q): not suppressing", ignorePrefix, ignorePrefix+" <analyzer> <reason>")
			}
		}
	}
	return false
}

func (r *reporter) reportf(pos token.Pos, format string, args ...any) {
	if r.suppressed(pos) {
		return
	}
	r.pass.Reportf(pos, format, args...)
}
