package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

// txEnd is the state checkTxEnd carries through a function body: which
// variables hold a slice (or typed pointer) into a transaction's
// micro-buffers, and which transactions have ended on some path to here.
type txEnd struct {
	r     *reporter
	owner map[types.Object]txSlice // variable → where its bytes came from
	ended map[types.Object]string  // transaction → "Commit" or "Abort"
}

// txSlice is a tracked variable's source: the transaction and the method
// (Open, AddRange, Alloc) that returned its bytes.
type txSlice struct {
	tx     types.Object
	method string
}

func (s *txEnd) fork() *txEnd {
	return &txEnd{r: s.r, owner: maps.Clone(s.owner), ended: maps.Clone(s.ended)}
}

// join merges the state of another path into s: a variable or an end
// seen on either path counts.
func (s *txEnd) join(o *txEnd) {
	maps.Copy(s.owner, o.owner)
	maps.Copy(s.ended, o.ended)
}

// checkTxEnd flags a slice from Open, AddRange or Alloc used after its
// transaction's Commit or Abort. Once a transaction ends its micro-buffers
// and first images are recycled, so such a slice reads (or writes)
// another transaction's bytes. The walk follows the body's structure:
// each branch of an if, switch or select starts from the state before
// it, a branch that returns (or panics, or fails the test) contributes
// nothing after it, and the rest join. A Run call ends the transaction
// its function literal receives.
func checkTxEnd(r *reporter, body *ast.BlockStmt) {
	s := &txEnd{r: r, owner: map[types.Object]txSlice{}, ended: map[types.Object]string{}}
	s.block(body.List)
}

// block walks stmts in order and reports whether control cannot fall
// out of its end.
func (s *txEnd) block(stmts []ast.Stmt) (terminates bool) {
	for _, st := range stmts {
		if s.stmt(st) {
			return true
		}
	}
	return false
}

func (s *txEnd) stmt(st ast.Stmt) (terminates bool) {
	switch st := st.(type) {
	case *ast.BlockStmt:
		return s.block(st.List)
	case *ast.LabeledStmt:
		return s.stmt(st.Stmt)
	case *ast.IfStmt:
		s.simple(st.Init)
		s.uses(st.Cond)
		then := s.fork()
		thenEnds := then.block(st.Body.List)
		elseEnds := false
		if st.Else != nil {
			elseEnds = s.stmt(st.Else)
		}
		switch {
		case thenEnds && elseEnds:
			return true
		case elseEnds:
			*s = *then
		case !thenEnds:
			s.join(then)
		}
		return false
	case *ast.ForStmt:
		s.simple(st.Init)
		s.uses(st.Cond)
		body := s.fork()
		body.block(st.Body.List)
		body.simple(st.Post)
		s.join(body)
		return false
	case *ast.RangeStmt:
		s.uses(st.X)
		body := s.fork()
		body.block(st.Body.List)
		s.join(body)
		return false
	case *ast.SwitchStmt:
		s.simple(st.Init)
		s.uses(st.Tag)
		return s.clauses(st.Body)
	case *ast.TypeSwitchStmt:
		s.simple(st.Init)
		s.simple(st.Assign)
		return s.clauses(st.Body)
	case *ast.SelectStmt:
		return s.clauses(st.Body)
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			s.uses(e)
		}
		return true
	case *ast.BranchStmt:
		return st.Tok != token.FALLTHROUGH
	case *ast.DeferStmt, *ast.GoStmt:
		// Runs later (or elsewhere): its uses are checked against the
		// state here, and what it binds or ends changes nothing here.
		s.fork().uses(st)
		return false
	case *ast.ExprStmt:
		s.simple(st)
		return isNoReturn(s.r.pass.TypesInfo, st.X)
	default:
		s.simple(st)
		return false
	}
}

// clauses walks the case or comm clauses of a switch or select: each
// starts from the state before it, and those that fall out of their end
// join (with the state before it, when no default clause is there).
func (s *txEnd) clauses(body *ast.BlockStmt) (terminates bool) {
	out, joined, hasDefault := s.fork(), false, false
	for _, c := range body.List {
		var list []ast.Stmt
		cs := s.fork()
		switch c := c.(type) {
		case *ast.CaseClause:
			hasDefault = hasDefault || c.List == nil
			for _, e := range c.List {
				cs.uses(e)
			}
			list = c.Body
		case *ast.CommClause:
			hasDefault = hasDefault || c.Comm == nil
			cs.simple(c.Comm)
			list = c.Body
		}
		if !cs.block(list) {
			if !joined {
				out, joined = cs, true
			} else {
				out.join(cs)
			}
		}
	}
	switch {
	case !hasDefault && joined:
		s.join(out)
	case !hasDefault:
	case !joined:
		return true
	default:
		*s = *out
	}
	return false
}

// simple checks a statement's uses, then records what it binds and the
// transactions it ends.
func (s *txEnd) simple(st ast.Stmt) {
	if st == nil {
		return
	}
	s.uses(st)
	info := s.r.pass.TypesInfo
	switch st := st.(type) {
	case *ast.AssignStmt:
		s.bind(st.Lhs, st.Rhs)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, n := range vs.Names {
						lhs[i] = n
					}
					s.bind(lhs, vs.Values)
				}
			}
		}
	}
	ast.Inspect(st, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !isFuncLit(n)
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Commit" || sel.Sel.Name == "Abort") &&
			isTxType(info.TypeOf(sel.X)) {
			if tx := rootObj(info, sel.X); tx != nil {
				s.ended[tx] = sel.Sel.Name
			}
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Run" {
			for _, a := range call.Args {
				if fl, ok := a.(*ast.FuncLit); ok {
					for _, tx := range txParams(info, fl) {
						s.ended[tx] = "Commit"
					}
				}
			}
		}
		return true
	})
}

// bind updates the tracked variables for an assignment: v from a call of
// Open, AddRange or Alloc on a transaction, or an alias of a tracked v
// (w := v[a:b]), is tracked; any other assignment to v stops tracking it.
// Assigning an ended transaction's variable starts a new transaction.
func (s *txEnd) bind(lhs, rhs []ast.Expr) {
	info := s.r.pass.TypesInfo
	var src txSlice
	at := -1
	if len(rhs) == 1 {
		src, at = txSliceCall(info, rhs[0])
	}
	for i, l := range lhs {
		id, ok := ast.Unparen(l).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := info.ObjectOf(id)
		if obj == nil {
			continue
		}
		if _, ok := s.ended[obj]; ok { // a new transaction in an ended one's variable
			delete(s.ended, obj)
			maps.DeleteFunc(s.owner, func(_ types.Object, src txSlice) bool { return src.tx == obj })
		}
		switch {
		case at >= 0 && i == at:
			s.owner[obj] = src
		case len(rhs) == len(lhs) && s.aliasOf(rhs[i]) != nil:
			s.owner[obj] = s.owner[s.aliasOf(rhs[i])]
		default:
			delete(s.owner, obj)
		}
	}
}

// aliasOf returns the tracked variable expr shares bytes with (v, v[a:b]),
// or nil.
func (s *txEnd) aliasOf(expr ast.Expr) types.Object {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident, *ast.SliceExpr:
		if obj := sliceRoot(s.r.pass.TypesInfo, e); obj != nil {
			if _, ok := s.owner[obj]; ok {
				return obj
			}
		}
	}
	return nil
}

// uses reports every reference under n to a tracked variable whose
// transaction has ended, except a bare assignment target (a rebinding).
// Function literals are walked as blocks of their own, sharing the state.
func (s *txEnd) uses(n ast.Node) {
	if n == nil {
		return
	}
	info := s.r.pass.TypesInfo
	rebound := map[*ast.Ident]bool{}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			s.block(n.Body.List)
			return false
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				if id, ok := ast.Unparen(l).(*ast.Ident); ok {
					rebound[id] = true
				}
			}
		case *ast.Ident:
			if rebound[n] {
				return false
			}
			src, ok := s.owner[info.Uses[n]]
			if !ok {
				return false
			}
			if end, ok := s.ended[src.tx]; ok {
				s.r.reportf(n.Pos(), "%q from Tx.%s used after the transaction's %s: its micro-buffer is recycled, so copy what must outlive the transaction", n.Name, src.method, end)
			}
		}
		return true
	})
}

// txSliceCall reports whether expr is a call of Open, AddRange or Alloc
// on a transaction — a method, or a function taking the transaction
// first (pangolin.Open[T]) — and which result carries the object's
// bytes: the first slice or pointer.
func txSliceCall(info *types.Info, expr ast.Expr) (txSlice, int) {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return txSlice{}, -1
	}
	name := funcName(ast.Unparen(call.Fun))
	var tx ast.Expr
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && isTxType(info.TypeOf(sel.X)) {
		tx = sel.X
	} else if len(call.Args) > 0 && isTxType(info.TypeOf(call.Args[0])) {
		tx = call.Args[0]
	}
	if tx == nil || (name != "Open" && name != "AddRange" && name != "Alloc") {
		return txSlice{}, -1
	}
	obj := rootObj(info, tx)
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if obj == nil || !ok {
		return txSlice{}, -1
	}
	for i := 0; i < sig.Results().Len(); i++ {
		switch sig.Results().At(i).Type().Underlying().(type) {
		case *types.Slice, *types.Pointer:
			return txSlice{tx: obj, method: name}, i
		}
	}
	return txSlice{}, -1
}

// funcName names the function an (instantiated) call target refers to.
func funcName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.IndexExpr:
		return funcName(e.X)
	case *ast.IndexListExpr:
		return funcName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// rootObj identifies the transaction an expression names: a variable,
// or the field a selector ends in.
func rootObj(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.ObjectOf(e)
	case *ast.SelectorExpr:
		return info.ObjectOf(e.Sel)
	}
	return nil
}

// txParams returns the transaction parameters of a function literal.
func txParams(info *types.Info, fl *ast.FuncLit) []types.Object {
	var out []types.Object
	for _, f := range fl.Type.Params.List {
		for _, n := range f.Names {
			if obj := info.ObjectOf(n); obj != nil && isTxType(obj.Type()) {
				out = append(out, obj)
			}
		}
	}
	return out
}

// isNoReturn reports whether expr is a call that does not return:
// panic, os.Exit, log.Fatal*, or a test's Fatal, FailNow or Skip.
func isNoReturn(info *types.Info, expr ast.Expr) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return f.Name == "panic" && info.Uses[f] == types.Universe.Lookup("panic")
	case *ast.SelectorExpr:
		switch f.Sel.Name {
		case "Exit", "Fatal", "Fatalf", "Fatalln", "FailNow", "Skip", "Skipf", "SkipNow":
			return true
		}
	}
	return false
}

func isFuncLit(n ast.Node) bool {
	_, ok := n.(*ast.FuncLit)
	return ok
}
