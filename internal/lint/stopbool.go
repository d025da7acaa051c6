package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

var StopBool = &Analyzer{
	Name: "stopbool",
	Doc: `check that iteration callbacks' bool (continue) results are propagated

Every scan path hands the caller's fn func(...) bool down through
structure walks, chunk merges, and overlay flushes; fn returning false
means stop now. Discarding that result keeps the iteration running
after the caller asked it to stop — the exact bug PR 8 fixed twice in
the snapshot merge paths, where overlay leftovers were flushed to fn
after it returned false. The analyzer flags any call to a func-typed
parameter returning bool whose result is discarded (expression
statement, blank assignment, go, or defer).`,
	Run: runStopBool,
}

func runStopBool(pass *Pass) {
	r := newReporter(pass)

	// Every parameter (of any function or closure) whose type is a
	// func returning exactly one bool is an iteration callback.
	callbacks := map[types.Object]bool{}
	collect := func(ft *ast.FuncType) {
		if ft.Params == nil {
			return
		}
		for _, field := range ft.Params.List {
			for _, name := range field.Names {
				obj := pass.TypesInfo.ObjectOf(name)
				if obj == nil {
					continue
				}
				sig, ok := obj.Type().Underlying().(*types.Signature)
				if !ok || sig.Results().Len() != 1 {
					continue
				}
				if basic, ok := sig.Results().At(0).Type().Underlying().(*types.Basic); ok && basic.Kind() == types.Bool {
					callbacks[obj] = true
				}
			}
		}
	}
	// callbackName names the callback parameter e calls, or is "".
	callbackName := func(e ast.Expr) string {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return ""
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && callbacks[pass.TypesInfo.ObjectOf(id)] {
			return id.Name
		}
		return ""
	}
	async := func(call *ast.CallExpr) {
		if name := callbackName(call); name != "" {
			r.reportf(call.Pos(), "callback %s called via go/defer discards its bool (continue) result: the early stop can never be propagated", name)
		}
	}
	// Preorder visits a function's parameters before its body, so every
	// callback is known before the first call to it.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				collect(n.Type)
			case *ast.FuncLit:
				collect(n.Type)
			case *ast.ExprStmt:
				if name := callbackName(n.X); name != "" {
					r.reportf(n.X.Pos(), "callback %s's bool (continue) result discarded: false means the caller asked the iteration to stop", name)
				}
			case *ast.GoStmt:
				async(n.Call)
			case *ast.DeferStmt:
				async(n.Call)
			case *ast.AssignStmt:
				if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
					break
				}
				for i, rhs := range n.Rhs {
					if name := callbackName(rhs); name != "" && i < len(n.Lhs) && allBlank(n.Lhs[i:i+1]) {
						r.reportf(rhs.Pos(), "callback %s's bool (continue) result assigned to _: false means the caller asked the iteration to stop", name)
					}
				}
			}
			return true
		})
	}
}
