package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

var FsyncRename = &Analyzer{
	Name: "fsyncrename",
	Doc: `flag os.Rename of data files without the fsync-temp/rename/fsync-dir pattern

A rename orders the directory entry, not the data: without an fsync of
the temp file before the rename and an fsync of the parent directory
after it, a host crash can leave the path pointing at a torn file or at
nothing at all (the bug class nvm.Device.SaveFile was hardened against
in PR 7). The analyzer flags any os.Rename whose enclosing function
does not fsync a file before the rename and fsync the parent directory
(a File.Sync call or a syncDir-style helper) after it. Test files are
exempt: fixture shuffling does not need crash durability.`,
	Run: runFsyncRename,
}

func runFsyncRename(pass *Pass) {
	r := newReporter(pass)
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkRenames(r, n.Body)
				}
				return false
			case *ast.CallExpr:
				if isPkgFunc(pass.TypesInfo, n, "os", "Rename") {
					r.reportf(n.Pos(), "os.Rename outside a function cannot implement the fsync-temp/rename/fsync-dir pattern; use nvm.Device.SaveFile or a helper that does")
				}
			}
			return true
		})
	}
}

// checkRenames checks every os.Rename in one top-level function body
// against the sync calls around it in that body.
func checkRenames(r *reporter, body *ast.BlockStmt) {
	info := r.pass.TypesInfo
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isPkgFunc(info, call, "os", "Rename") {
			return true
		}
		syncBefore, dirSyncAfter := renameDiscipline(info, body, call)
		switch {
		case !syncBefore && !dirSyncAfter:
			r.reportf(call.Pos(), "raw os.Rename of a data file: fsync the temp file before the rename and the parent directory after it (see nvm.Device.SaveFile)")
		case !syncBefore:
			r.reportf(call.Pos(), "os.Rename without an fsync of the renamed file first: the rename can land before the data and a crash leaves a torn file")
		case !dirSyncAfter:
			r.reportf(call.Pos(), "os.Rename without an fsync of the parent directory after it: the new directory entry is not durable and a crash can lose the file")
		}
		return true
	})
}

// renameDiscipline scans the enclosing function for a File.Sync call
// lexically before the rename and a directory sync (File.Sync or a
// *syncDir*-named helper) lexically after it.
func renameDiscipline(info *types.Info, body *ast.BlockStmt, rename *ast.CallExpr) (syncBefore, dirSyncAfter bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case isFileSync(info, call):
			if call.Pos() < rename.Pos() {
				syncBefore = true
			} else {
				dirSyncAfter = true
			}
		case isSyncDirHelper(call):
			if call.Pos() > rename.Pos() {
				dirSyncAfter = true
			}
		}
		return true
	})
	return syncBefore, dirSyncAfter
}

// isFileSync matches f.Sync() where f is an *os.File.
func isFileSync(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Sync" {
		return false
	}
	t := info.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "File" && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "os"
}

// isSyncDirHelper matches calls to helpers whose name contains
// "syncdir" (case-insensitive), e.g. syncDir(dir) or fsutil.SyncDir.
func isSyncDirHelper(call *ast.CallExpr) bool {
	var name string
	switch f := call.Fun.(type) {
	case *ast.Ident:
		name = f.Name
	case *ast.SelectorExpr:
		name = f.Sel.Name
	default:
		return false
	}
	return strings.Contains(strings.ToLower(name), "syncdir")
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
