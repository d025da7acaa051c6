package lint

import (
	"go/ast"
	"go/types"
)

var TxWrite = &Analyzer{
	Name: "txwrite",
	Doc: `flag undeclared stores to transaction snapshots, discarded commits, and micro-buffers used after their transaction

Inside a transaction every write must go through Open/AddRange, which
log the range so commit can update the object, its checksum, and zone
parity together (the paper's §4 write contract). Tx.Get hands out a
read-only snapshot: writing through it corrupts checksums and parity
silently. The analyzer flags element writes, copy/append/clear, through
byte slices obtained from a Tx.Get call, and Commit calls whose error
result is discarded. A transaction's micro-buffers are recycled once it
commits or aborts, so it also flags a slice (or typed pointer) from
Open, AddRange or Alloc used after its transaction's Commit or Abort,
or after the Run call that committed it.`,
	Run: runTxWrite,
}

func runTxWrite(pass *Pass) {
	r := newReporter(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkTxFunc(r, fd.Body)
				checkTxEnd(r, fd.Body)
			}
		}
	}
}

// checkTxFunc walks one top-level function body (including nested
// closures, which share the outer taint set since they capture its
// variables) in source order, tracking which variables currently hold a
// Tx.Get snapshot.
func checkTxFunc(r *reporter, body *ast.BlockStmt) {
	tainted := map[types.Object]bool{}
	info := r.pass.TypesInfo
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// First: is any LHS an element write through a tainted
			// slice? (A bare identifier LHS is a rebinding, not a
			// store through the snapshot.)
			for _, lhs := range n.Lhs {
				if _, isIndex := ast.Unparen(lhs).(*ast.IndexExpr); !isIndex {
					continue
				}
				if obj := sliceRoot(info, lhs); obj != nil && tainted[obj] {
					r.reportf(lhs.Pos(), "write to read-only Tx.Get snapshot %q; open the object for writing with Open or AddRange instead", obj.Name())
				}
			}
			// Then update taint: v, err := tx.Get(...) taints v; any
			// other assignment to v clears it (e.g. a later Open).
			fromGet := len(n.Rhs) == 1 && isTxMethodCall(info, n.Rhs[0], "Get")
			if len(n.Rhs) == 1 {
				if _, isLit := n.Rhs[0].(*ast.FuncLit); isLit {
					return true // handled by the recursive Inspect
				}
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := info.ObjectOf(id)
				if obj == nil {
					continue
				}
				switch {
				case fromGet && i == 0:
					tainted[obj] = true
				case len(n.Rhs) == 1 && taintAlias(info, tainted, n.Rhs[0]):
					tainted[obj] = true
				default:
					delete(tainted, obj)
				}
			}
		case *ast.CallExpr:
			checkTxCall(r, tainted, n)
		case *ast.ExprStmt:
			if isTxMethodCall(info, n.X, "Commit") {
				r.reportf(n.Pos(), "Tx.Commit error discarded: commit can fail (log full, media fault) and the transaction is not durable until it returns nil")
			}
		case *ast.DeferStmt:
			if isTxCommitFun(info, n.Call) {
				r.reportf(n.Pos(), "Tx.Commit error discarded in defer: commit can fail and the transaction is not durable until it returns nil")
			}
		}
		return true
	})
	// Second pass for blank-assigned commits: _ = tx.Commit().
	ast.Inspect(body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Rhs) == 1 && isTxMethodCall(info, as.Rhs[0], "Commit") && allBlank(as.Lhs) {
			r.reportf(as.Pos(), "Tx.Commit error discarded: commit can fail (log full, media fault) and the transaction is not durable until it returns nil")
		}
		return true
	})
}

// checkTxCall flags builtin calls that write through a tainted slice:
// copy(dst, ...), append(s, ...), clear(s).
func checkTxCall(r *reporter, tainted map[types.Object]bool, call *ast.CallExpr) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || len(call.Args) == 0 {
		return
	}
	var arg ast.Expr
	switch id.Name {
	case "copy", "append", "clear":
		arg = call.Args[0]
	default:
		return
	}
	if obj := sliceRoot(r.pass.TypesInfo, arg); obj != nil && tainted[obj] {
		r.reportf(call.Pos(), "%s writes into read-only Tx.Get snapshot %q; open the object for writing with Open or AddRange instead", id.Name, obj.Name())
	}
}

// taintAlias reports whether expr reads from a tainted slice in a way
// that aliases its backing array (v2 := v1, v2 := v1[a:b]).
func taintAlias(info *types.Info, tainted map[types.Object]bool, expr ast.Expr) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident, *ast.SliceExpr:
		if obj := sliceRoot(info, e); obj != nil {
			return tainted[obj]
		}
	}
	return false
}

// sliceRoot resolves the variable written through an lvalue/argument
// expression: v, v[i], v[a:b], (v) all root at v.
func sliceRoot(info *types.Info, expr ast.Expr) types.Object {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		case *ast.Ident:
			obj := info.ObjectOf(e)
			if obj == nil {
				return nil
			}
			if _, ok := obj.Type().(*types.Slice); !ok {
				return nil
			}
			return obj
		default:
			return nil
		}
	}
}

// isTxMethodCall reports whether expr is a call to a method named name
// on a transaction type (a named type called Tx, possibly behind a
// pointer).
func isTxMethodCall(info *types.Info, expr ast.Expr, name string) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return false
	}
	if name == "Commit" {
		return isTxCommitFun(info, call)
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	if !isTxType(info.TypeOf(sel.X)) {
		return false
	}
	// Tx.Get specifically returns ([]byte, error): the read-only
	// snapshot shape.
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok || sig.Results().Len() != 2 {
		return false
	}
	s, ok := sig.Results().At(0).Type().(*types.Slice)
	return ok && types.Identical(s.Elem(), types.Typ[types.Byte])
}

func isTxCommitFun(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Commit" {
		return false
	}
	if !isTxType(info.TypeOf(sel.X)) {
		return false
	}
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok || sig.Results().Len() != 1 {
		return false
	}
	return isErrorType(sig.Results().At(0).Type())
}

func isTxType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Tx"
}

func allBlank(exprs []ast.Expr) bool {
	for _, e := range exprs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return true
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(t types.Type) bool {
	return t != nil && types.Implements(t, errorIface)
}
