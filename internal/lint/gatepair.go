package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/pangolin-go/pangolin/internal/lint/cfg"
)

var GatePair = &Analyzer{
	Name: "gatepair",
	Doc: `check shard reader/writer gate discipline

Every Lock/RLock/TryRLock/TryLock acquired on a shard gate (a
sync.Mutex or sync.RWMutex stored in a field or variable named "gate")
must be released on every path out of the function, with the matching
release kind, and no channel operation may run while the gate is held:
the gate serializes readers against group commits, so a blocking send
under it can deadlock the shard's worker loop. The check is a forward
may-analysis over the function's control-flow graph; locks inherited
from the caller (released before any acquire) are out of scope.`,
	Run: runGatePair,
}

// Lock-event kinds. Read and write sides are tracked separately so a
// TryRLock answered by Unlock is flagged as a mismatch.
type lockKind uint8

const (
	lockR lockKind = iota
	lockW
)

type gateKey struct {
	expr string // canonical receiver expression, e.g. "w.gate"
	kind lockKind
}

// held-state bits for one gate key along some path.
const (
	heldOpen     uint8 = 1 << iota // acquired, no release covering exit yet
	heldDeferred                   // acquired, release deferred (covered at exit)
)

type gateState map[gateKey]uint8

func (s gateState) clone() gateState {
	c := make(gateState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// merge ORs src into dst, reporting whether dst changed.
func (s gateState) merge(src gateState) bool {
	changed := false
	for k, v := range src {
		if s[k]|v != s[k] {
			s[k] |= v
			changed = true
		}
	}
	return changed
}

func (s gateState) anyHeld() bool {
	for _, v := range s {
		if v != 0 {
			return true
		}
	}
	return false
}

// gateEvent is one abstract action inside a basic block, in source
// order.
type gateEvent struct {
	kind eventKind
	key  gateKey
	pos  token.Pos
}

type eventKind uint8

const (
	evAcquire eventKind = iota
	evRelease
	evDeferRelease
	evChanOp
	evReturn
)

func runGatePair(pass *Pass) {
	r := newReporter(pass)
	for _, f := range pass.Files {
		funcsOf(f, func(node ast.Node, body *ast.BlockStmt) {
			if mentionsGate(body) {
				checkGateFunc(r, body)
			}
		})
	}
}

// mentionsGate is a cheap prefilter: does the body reference an
// identifier named "gate" at all?
func mentionsGate(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "gate" {
			found = true
		}
		return !found
	})
	return found
}

func checkGateFunc(r *reporter, body *ast.BlockStmt) {
	info := r.pass.TypesInfo
	graph := cfg.New(body, func(*ast.CallExpr) bool { return true })

	// Non-blocking channel ops (inside a select that has a default
	// clause) are exempt from the held-gate check.
	nonBlocking := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, clause := range sel.Body.List {
			if clause.(*ast.CommClause).Comm == nil {
				hasDefault = true
			}
		}
		if hasDefault {
			for _, clause := range sel.Body.List {
				if comm := clause.(*ast.CommClause).Comm; comm != nil {
					nonBlocking[comm] = true
					if es, ok := comm.(*ast.ExprStmt); ok {
						nonBlocking[es.X] = true
					}
				}
			}
		}
		return true
	})

	// branchAcq describes a block ending in `if g.TryRLock()` (or its
	// negation): the acquire takes effect only on one successor edge.
	type branchAcq struct {
		key      gateKey
		trueHeld bool
	}

	events := make([][]gateEvent, len(graph.Blocks))
	branches := make([]*branchAcq, len(graph.Blocks))
	for i, b := range graph.Blocks {
		for j, node := range b.Nodes {
			last := j == len(b.Nodes)-1
			// A two-successor block whose condition is exactly a
			// try-acquire (or !try-acquire) transfers the lock on only
			// one edge.
			if last && len(b.Succs) == 2 {
				cond := node
				trueHeld := true
				if u, ok := cond.(ast.Expr); ok {
					if un, ok2 := ast.Unparen(u).(*ast.UnaryExpr); ok2 && un.Op == token.NOT {
						cond = ast.Unparen(un.X)
						trueHeld = false
					}
				}
				if call, ok := cond.(*ast.CallExpr); ok {
					if key, k, ok2 := gateCall(info, call); ok2 && (k == "TryLock" || k == "TryRLock") {
						branches[i] = &branchAcq{key: key, trueHeld: trueHeld}
						continue // not a linear event
					}
				}
			}
			events[i] = append(events[i], nodeEvents(info, node, nonBlocking)...)
		}
	}

	// Forward may-analysis to fixpoint. States only grow (bitwise OR),
	// so this terminates.
	in := make([]gateState, len(graph.Blocks))
	for i := range in {
		in[i] = gateState{}
	}
	acquirePos := map[gateKey]token.Pos{}
	type report struct {
		pos token.Pos
		msg string
	}
	reports := map[string]report{} // dedupe key -> report

	// Every block is processed at least once (the entry state may stay
	// empty, but the block's own events still need interpreting).
	work := make([]int32, len(graph.Blocks))
	inWork := map[int32]bool{}
	for i := range graph.Blocks {
		work[i] = int32(i)
		inWork[int32(i)] = true
	}
	for len(work) > 0 {
		bi := work[0]
		work = work[1:]
		inWork[bi] = false
		b := graph.Blocks[bi]
		state := in[bi].clone()
		for _, ev := range events[bi] {
			switch ev.kind {
			case evAcquire:
				state[ev.key] |= heldOpen
				acquirePos[ev.key] = ev.pos
			case evDeferRelease:
				if state[ev.key]&heldOpen != 0 {
					state[ev.key] &^= heldOpen
					state[ev.key] |= heldDeferred
				}
			case evRelease:
				if state[ev.key]&heldOpen != 0 {
					state[ev.key] &^= heldOpen
				} else if state[ev.key] == 0 {
					// Releasing the other side of the same gate while
					// holding this side unreleased is a kind mismatch.
					other := gateKey{expr: ev.key.expr, kind: ev.key.kind ^ 1}
					if state[other]&heldOpen != 0 {
						reports["mismatch:"+ev.key.expr] = report{ev.pos, "release kind does not match the acquire on " + ev.key.expr + " (Lock pairs with Unlock, RLock/TryRLock with RUnlock)"}
						state[other] &^= heldOpen
					}
				}
			case evChanOp:
				if state.anyHeld() {
					reports["chan:"+r.pass.Fset.Position(ev.pos).String()] = report{ev.pos, "channel operation while holding the shard gate: the gate serializes readers against commits and must never wait on a channel"}
				}
			case evReturn:
				for k, v := range state {
					if v&heldOpen != 0 {
						reports["leak:"+k.expr] = report{acquirePos[k], "gate acquired here is not released on every path (add the missing Unlock/RUnlock or a defer)"}
					}
				}
			}
		}
		for si, succ := range b.Succs {
			out := state
			if ba := branches[bi]; ba != nil && (si == 0) == ba.trueHeld {
				out = state.clone()
				out[ba.key] |= heldOpen
				acquirePos[ba.key] = b.Nodes[len(b.Nodes)-1].Pos()
			}
			if in[succ.Index].merge(out) && !inWork[succ.Index] {
				work = append(work, succ.Index)
				inWork[succ.Index] = true
			}
		}
	}
	for _, rep := range reports {
		r.reportf(rep.pos, "%s", rep.msg)
	}
}

// nodeEvents extracts the gate-relevant events from one CFG node, in
// traversal (≈source) order, without descending into function
// literals.
func nodeEvents(info *types.Info, node ast.Node, nonBlocking map[ast.Node]bool) []gateEvent {
	var evs []gateEvent
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // its body has its own CFG
		case *ast.DeferStmt:
			if key, kind, ok := gateCall(info, n.Call); ok && isRelease(kind) {
				evs = append(evs, gateEvent{evDeferRelease, releaseKey(key, kind), n.Pos()})
				return false
			}
		case *ast.CallExpr:
			if key, kind, ok := gateCall(info, n); ok {
				switch {
				case isRelease(kind):
					evs = append(evs, gateEvent{evRelease, releaseKey(key, kind), n.Pos()})
				default:
					evs = append(evs, gateEvent{evAcquire, key, n.Pos()})
				}
			}
		case *ast.SendStmt:
			if !nonBlocking[ast.Node(n)] {
				evs = append(evs, gateEvent{evChanOp, gateKey{}, n.Pos()})
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !nonBlocking[ast.Node(n)] {
				evs = append(evs, gateEvent{evChanOp, gateKey{}, n.Pos()})
			}
		case *ast.ReturnStmt:
			evs = append(evs, gateEvent{evReturn, gateKey{}, n.Pos()})
		}
		return true
	})
	return evs
}

func isRelease(method string) bool { return method == "Unlock" || method == "RUnlock" }

// releaseKey maps a release method to the gate key it releases.
func releaseKey(key gateKey, method string) gateKey {
	if method == "RUnlock" {
		key.kind = lockR
	} else {
		key.kind = lockW
	}
	return key
}

// gateCall recognizes <expr>.gate.<method>() and gate.<method>() where
// the gate is a sync.Mutex or sync.RWMutex (possibly behind a pointer)
// and method is one of the lock-discipline methods. It returns the
// canonical key and the method name.
func gateCall(info *types.Info, call *ast.CallExpr) (gateKey, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return gateKey{}, "", false
	}
	method := sel.Sel.Name
	switch method {
	case "Lock", "TryLock", "Unlock", "RLock", "TryRLock", "RUnlock":
	default:
		return gateKey{}, "", false
	}
	recv := ast.Unparen(sel.X)
	var name string
	switch x := recv.(type) {
	case *ast.Ident:
		name = x.Name
	case *ast.SelectorExpr:
		name = x.Sel.Name
	default:
		return gateKey{}, "", false
	}
	if name != "gate" {
		return gateKey{}, "", false
	}
	if !isSyncLocker(info.TypeOf(recv)) {
		return gateKey{}, "", false
	}
	kind := lockW
	if method == "RLock" || method == "TryRLock" || method == "RUnlock" {
		kind = lockR
	}
	return gateKey{expr: types.ExprString(recv), kind: kind}, method, true
}

func isSyncLocker(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}
