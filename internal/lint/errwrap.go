package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

var ErrWrap = &Analyzer{
	Name: "errwrap",
	Doc: `enforce error wrapping and comparison discipline in internal/ and server/

The serving layers classify errors by identity: pipelined replies carry
typed statuses, heal-and-retry gates on IsCorruption/IsPoison, and
shutdown resolves in-flight ops with a sentinel clients test with
errors.Is. A fmt.Errorf that formats an error with %v instead of %w
severs that chain (the exact contract break PR 7's review fixed in the
store Apply path), and == against a typed error stops matching the
moment anyone wraps it. The analyzer flags fmt.Errorf calls that format
an error value with a verb other than %w, and ==/!= comparisons where
both operands are errors (nil checks excluded).`,
	Run: runErrWrap,
}

func runErrWrap(pass *Pass) {
	path := pass.Pkg.Path()
	if !strings.Contains(path, "/internal/") &&
		!strings.HasPrefix(path, "internal/") &&
		!strings.HasSuffix(path, "/server") &&
		!strings.Contains(path, "/server/") {
		return
	}
	r := newReporter(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkErrorfWrap(r, n)
			case *ast.BinaryExpr:
				checkErrCompare(r, n)
			}
			return true
		})
	}
}

// checkErrorfWrap flags fmt.Errorf calls that pass an error value under
// a verb other than %w.
func checkErrorfWrap(r *reporter, call *ast.CallExpr) {
	info := r.pass.TypesInfo
	if !isPkgFunc(info, call, "fmt", "Errorf") || len(call.Args) < 2 {
		return
	}
	tv, ok := info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	verbs, ok := formatVerbs(constant.StringVal(tv.Value))
	if !ok {
		return
	}
	for i, verb := range verbs {
		argIdx := 1 + i
		if argIdx >= len(call.Args) {
			return
		}
		if verb == 'w' {
			continue
		}
		t := info.TypeOf(call.Args[argIdx])
		if t != nil && isErrorType(t) {
			r.reportf(call.Args[argIdx].Pos(), "error formatted with %%%c instead of %%w: the cause is severed and errors.Is/IsCorruption/IsPoison stop matching through this wrap", verb)
		}
	}
}

// isPkgFunc reports whether call invokes the package-level function
// pkgPath.name.
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath
}

// formatVerbs returns the verb letter consuming each successive
// argument of a Printf-style format string. It bails out (ok=false) on
// explicit argument indexes like %[1]d.
func formatVerbs(format string) (verbs []rune, ok bool) {
	runes := []rune(format)
	for i := 0; i < len(runes); i++ {
		if runes[i] != '%' {
			continue
		}
		i++
		if i >= len(runes) {
			break
		}
		if runes[i] == '%' {
			continue
		}
		// flags, width, precision; '*' consumes an argument of its own.
		for i < len(runes) && strings.ContainsRune("+-# 0123456789.*", runes[i]) {
			if runes[i] == '*' {
				verbs = append(verbs, '*')
			}
			i++
		}
		if i >= len(runes) {
			break
		}
		if runes[i] == '[' {
			return nil, false
		}
		verbs = append(verbs, runes[i])
	}
	return verbs, true
}

// checkErrCompare flags ==/!= where both operands are error values
// (and neither is nil): wrapped errors never compare equal, use
// errors.Is or the typed helpers.
func checkErrCompare(r *reporter, cmp *ast.BinaryExpr) {
	if cmp.Op != token.EQL && cmp.Op != token.NEQ {
		return
	}
	info := r.pass.TypesInfo
	x, y := info.Types[cmp.X], info.Types[cmp.Y]
	if x.IsNil() || y.IsNil() {
		return
	}
	if x.Type == nil || y.Type == nil || !isErrorType(x.Type) || !isErrorType(y.Type) {
		return
	}
	r.reportf(cmp.OpPos, "errors compared with %s never match once wrapped: use errors.Is (or IsCorruption/IsPoison for the typed fault classes)", cmp.Op)
}
