package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
)

// A Package is one type-checked package ready for analysis. When a
// package has in-package _test.go files it is loaded as its test
// variant "p [p.test]", which holds both its files and those tests; an
// external test package is "p_test [p.test]". So every file of the
// listed packages, tests included, is analyzed exactly once.
type Package struct {
	ID    string // as go list names it, e.g. "example.com/p [example.com/p.test]"
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listed is the subset of `go list -json` output the loader reads.
type listed struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	ImportMap  map[string]string
	ForTest    string
	DepOnly    bool
	Error      *struct{ Err string }
}

const listFields = "ImportPath,Name,Dir,GoFiles,Export,ImportMap,ForTest,DepOnly,Error"

// Load lists patterns from dir with `go list -test -export -deps`, then
// parses and type-checks each listed package from source, importing its
// dependencies from the export data go list built. A package go list
// reports an error for, or one that does not type-check, is an error:
// Load returns every such error joined, alongside the packages that
// loaded cleanly.
func Load(dir string, patterns ...string) ([]*Package, error) {
	env, err := goCmd(dir, "env", "GOARCH")
	if err != nil {
		return nil, err
	}
	goarch := strings.TrimSpace(string(env))
	sizes := types.SizesFor("gc", goarch)
	if sizes == nil {
		return nil, fmt.Errorf("no type sizes for GOARCH %q", goarch)
	}
	out, err := goCmd(dir, append([]string{"list", "-e", "-test", "-export", "-deps", "-json=" + listFields, "--"}, patterns...)...)
	if err != nil {
		return nil, err
	}

	exports := map[string]string{}
	var targets []*listed
	hasTestVariant := map[string]bool{} // p -> "p [p.test]" is listed
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		p := new(listed)
		if err := dec.Decode(p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.DepOnly || isTestMain(p) {
			continue
		}
		if p.ForTest != "" && strings.HasPrefix(p.ImportPath, p.ForTest+" [") {
			hasTestVariant[p.ForTest] = true
		}
		targets = append(targets, p)
	}

	// Targets read only export data, never each other's results, so they
	// type-check concurrently, GOMAXPROCS at a time.
	fset := token.NewFileSet()
	pkgs := make([]*Package, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, t := range targets {
		if hasTestVariant[t.ImportPath] {
			continue // its files are all in "p [p.test]"
		}
		if t.Error != nil {
			errs[i] = fmt.Errorf("%s: %s", t.ImportPath, strings.TrimSpace(t.Error.Err))
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			pkgs[i], errs[i] = check(fset, t, exports, sizes)
			<-sem
		}()
	}
	wg.Wait()
	return slices.DeleteFunc(pkgs, func(p *Package) bool { return p == nil }), errors.Join(errs...)
}

// isTestMain reports whether p is the main package go list generates to
// run a package's tests; none of its source is the package's own.
func isTestMain(p *listed) bool {
	return p.Name == "main" && p.ForTest == "" && strings.HasSuffix(p.ImportPath, ".test")
}

// check parses t's files and type-checks them, resolving each import
// through t's import map to the export data of the package go list
// compiled for it.
func check(fset *token.FileSet, t *listed, exports map[string]string, sizes types.Sizes) (*Package, error) {
	var files []*ast.File
	for _, name := range t.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", t.ImportPath, err)
		}
		files = append(files, f)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := t.ImportMap[path]; ok {
			path = mapped
		}
		exp, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exp)
	}
	var typeErrs []error
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		Sizes:    sizes,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	// A test variant's ID is "p [p.test]"; its package path is p.
	path, _, _ := strings.Cut(t.ImportPath, " [")
	pkg, _ := conf.Check(path, fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("%s: type errors:\n%w", t.ImportPath, errors.Join(typeErrs...))
	}
	return &Package{ID: t.ImportPath, Fset: fset, Files: files, Types: pkg, Info: info}, nil
}

// goCmd runs the go command in dir and returns its standard output.
func goCmd(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %w\n%s", args[0], err, stderr.Bytes())
	}
	return out, nil
}

// Run applies each analyzer to p and returns what they report.
func (p *Package) Run(analyzers ...*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		a.Run(&Pass{
			Analyzer:  a,
			Fset:      p.Fset,
			Files:     p.Files,
			Pkg:       p.Types,
			TypesInfo: p.Info,
			Report:    func(d Diagnostic) { diags = append(diags, d) },
		})
	}
	return diags
}
