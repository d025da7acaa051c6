// Package rbtree implements a persistent red-black tree over uint64 keys,
// one of the six PMDK data-structure benchmarks (§4.5). Nodes are
// 80-byte Pangolin objects (Table 3).
//
// The implementation is the classic CLRS algorithm with parent pointers
// and an explicit sentinel node (as PMDK's rbtree uses), so rotation and
// fixup code never special-cases nil: the sentinel is a real, black,
// persistent object whose links may be written freely.
package rbtree

import (
	"fmt"

	"github.com/pangolin-go/pangolin"
)

const typeNode = 0x72 // 'r'

const (
	red   uint64 = 0
	black uint64 = 1
)

// node is the persistent layout: 80 bytes, matching the paper.
type node struct {
	Parent pangolin.OID
	Left   pangolin.OID
	Right  pangolin.OID
	Key    uint64
	Value  uint64
	Color  uint64
	_      uint64
}

type anchor struct {
	Root     pangolin.OID // tree root, or Sentinel when empty
	Sentinel pangolin.OID
	Count    uint64
}

// Tree is a handle to a persistent red-black tree.
type Tree struct {
	p        *pangolin.Pool
	anchor   pangolin.OID
	sentinel pangolin.OID // cached from the anchor
}

// New allocates a fresh tree (anchor plus sentinel node).
func New(p *pangolin.Pool) (*Tree, error) {
	var aOID, sOID pangolin.OID
	err := p.Run(func(tx *pangolin.Tx) error {
		var err error
		var a *anchor
		aOID, a, err = pangolin.Alloc[anchor](tx, typeNode)
		if err != nil {
			return err
		}
		var s *node
		sOID, s, err = pangolin.Alloc[node](tx, typeNode)
		if err != nil {
			return err
		}
		s.Color = black
		s.Parent, s.Left, s.Right = sOID, sOID, sOID
		a.Root = sOID
		a.Sentinel = sOID
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Tree{p: p, anchor: aOID, sentinel: sOID}, nil
}

// Attach reconnects to an existing tree.
func Attach(p *pangolin.Pool, anchorOID pangolin.OID) (*Tree, error) {
	a, err := pangolin.GetFromPool[anchor](p, anchorOID)
	if err != nil {
		return nil, err
	}
	return &Tree{p: p, anchor: anchorOID, sentinel: a.Sentinel}, nil
}

// Anchor returns the tree's persistent anchor OID.
func (t *Tree) Anchor() pangolin.OID { return t.anchor }

// Len returns the number of keys.
func (t *Tree) Len() (uint64, error) {
	a, err := pangolin.GetFromPool[anchor](t.p, t.anchor)
	if err != nil {
		return 0, err
	}
	return a.Count, nil
}

// Lookup finds k with direct (unbuffered) reads. It is a pure read (no
// pool writes, no handle state), honoring the kv.Map concurrent-read
// contract: on a ReadView instance it may run concurrently with other
// Lookups, gated against commits by the caller.
func (t *Tree) Lookup(k uint64) (uint64, bool, error) { return t.lookup(t.p.Get, k) }

// LookupTx is Lookup inside the caller's transaction, observing the
// transaction's own uncommitted writes.
func (t *Tree) LookupTx(tx *pangolin.Tx, k uint64) (uint64, bool, error) {
	return t.lookup(tx.Get, k)
}

// lookup finds k, reading each node through get.
func (t *Tree) lookup(get pangolin.Getter, k uint64) (uint64, bool, error) {
	a, err := pangolin.Read[anchor](get, t.anchor)
	if err != nil {
		return 0, false, err
	}
	cur := a.Root
	for cur != t.sentinel {
		n, err := pangolin.Read[node](get, cur)
		if err != nil {
			return 0, false, err
		}
		switch {
		case k == n.Key:
			return n.Value, true, nil
		case k < n.Key:
			cur = n.Left
		default:
			cur = n.Right
		}
	}
	return 0, false, nil
}

// treeErr carries an access error out of the recursive algorithm; it is
// recovered at the transaction boundary (the panic never crosses the
// package API).
type treeErr struct{ err error }

// w is the write-side working view inside one transaction.
type w struct {
	tx *pangolin.Tx
	a  *anchor
	s  pangolin.OID
}

// n opens a node for writing (idempotent per transaction).
func (t *w) n(oid pangolin.OID) *node {
	p, err := pangolin.Open[node](t.tx, oid)
	if err != nil {
		panic(treeErr{err})
	}
	return p
}

// r reads a node without declaring a write (pgl_get; the transaction's
// own micro-buffer when it has one open).
func (t *w) r(oid pangolin.OID) *node {
	p, err := pangolin.Get[node](t.tx, oid)
	if err != nil {
		panic(treeErr{err})
	}
	return p
}

func (t *w) rotateLeft(x pangolin.OID) {
	xn := t.n(x)
	y := xn.Right
	yn := t.n(y)
	xn.Right = yn.Left
	if yn.Left != t.s {
		t.n(yn.Left).Parent = x
	}
	yn.Parent = xn.Parent
	switch {
	case xn.Parent == t.s:
		t.a.Root = y
	case x == t.n(xn.Parent).Left:
		t.n(xn.Parent).Left = y
	default:
		t.n(xn.Parent).Right = y
	}
	yn.Left = x
	xn.Parent = y
}

func (t *w) rotateRight(x pangolin.OID) {
	xn := t.n(x)
	y := xn.Left
	yn := t.n(y)
	xn.Left = yn.Right
	if yn.Right != t.s {
		t.n(yn.Right).Parent = x
	}
	yn.Parent = xn.Parent
	switch {
	case xn.Parent == t.s:
		t.a.Root = y
	case x == t.n(xn.Parent).Right:
		t.n(xn.Parent).Right = y
	default:
		t.n(xn.Parent).Left = y
	}
	yn.Right = x
	xn.Parent = y
}

// Insert adds or updates k in one transaction.
func (t *Tree) Insert(k, v uint64) error {
	return t.run(func(tw *w) error { return t.insertW(tw, k, v) })
}

// InsertTx adds or updates k inside the caller's transaction.
func (t *Tree) InsertTx(tx *pangolin.Tx, k, v uint64) error {
	return t.runIn(tx, func(tw *w) error { return t.insertW(tw, k, v) })
}

func (t *Tree) insertW(tw *w, k, v uint64) error {
	// BST descent: reads only (pgl_get), writes declared on the
	// touched nodes below.
	parent := tw.s
	cur := tw.a.Root
	for cur != tw.s {
		cn := tw.r(cur)
		if k == cn.Key {
			tw.n(cur).Value = v
			return nil
		}
		parent = cur
		if k < cn.Key {
			cur = cn.Left
		} else {
			cur = cn.Right
		}
	}
	zOID, z, err := pangolin.Alloc[node](tw.tx, typeNode)
	if err != nil {
		return err
	}
	z.Key, z.Value = k, v
	z.Color = red
	z.Left, z.Right = tw.s, tw.s
	z.Parent = parent
	switch {
	case parent == tw.s:
		tw.a.Root = zOID
	case k < tw.r(parent).Key:
		tw.n(parent).Left = zOID
	default:
		tw.n(parent).Right = zOID
	}
	tw.a.Count++
	tw.insertFixup(zOID)
	return nil
}

func (t *w) insertFixup(z pangolin.OID) {
	for {
		zp := t.n(z).Parent
		if zp == t.s || t.n(zp).Color != red {
			break
		}
		zpp := t.n(zp).Parent
		if zp == t.n(zpp).Left {
			y := t.n(zpp).Right // uncle
			if y != t.s && t.n(y).Color == red {
				t.n(zp).Color = black
				t.n(y).Color = black
				t.n(zpp).Color = red
				z = zpp
				continue
			}
			if z == t.n(zp).Right {
				z = zp
				t.rotateLeft(z)
				zp = t.n(z).Parent
				zpp = t.n(zp).Parent
			}
			t.n(zp).Color = black
			t.n(zpp).Color = red
			t.rotateRight(zpp)
		} else {
			y := t.n(zpp).Left
			if y != t.s && t.n(y).Color == red {
				t.n(zp).Color = black
				t.n(y).Color = black
				t.n(zpp).Color = red
				z = zpp
				continue
			}
			if z == t.n(zp).Left {
				z = zp
				t.rotateRight(z)
				zp = t.n(z).Parent
				zpp = t.n(zp).Parent
			}
			t.n(zp).Color = black
			t.n(zpp).Color = red
			t.rotateLeft(zpp)
		}
	}
	t.n(t.a.Root).Color = black
}

// transplant replaces subtree u with subtree v (CLRS), updating v's
// parent even when v is the sentinel — the property deleteFixup needs.
func (t *w) transplant(u, v pangolin.OID) {
	up := t.n(u).Parent
	switch {
	case up == t.s:
		t.a.Root = v
	case u == t.n(up).Left:
		t.n(up).Left = v
	default:
		t.n(up).Right = v
	}
	t.n(v).Parent = up
}

// Remove deletes k, reporting whether it was present.
func (t *Tree) Remove(k uint64) (bool, error) {
	found := false
	err := t.run(func(tw *w) error { return t.removeW(tw, k, &found) })
	return found, err
}

// RemoveTx deletes k inside the caller's transaction, reporting whether it
// was present.
func (t *Tree) RemoveTx(tx *pangolin.Tx, k uint64) (bool, error) {
	found := false
	err := t.runIn(tx, func(tw *w) error { return t.removeW(tw, k, &found) })
	return found, err
}

func (t *Tree) removeW(tw *w, k uint64, found *bool) error {
	z := tw.a.Root
	for z != tw.s {
		zn := tw.r(z)
		if k == zn.Key {
			break
		}
		if k < zn.Key {
			z = zn.Left
		} else {
			z = zn.Right
		}
	}
	if z == tw.s {
		return nil
	}
	*found = true
	y := z
	yColor := tw.n(y).Color
	var x pangolin.OID
	switch {
	case tw.n(z).Left == tw.s:
		x = tw.n(z).Right
		tw.transplant(z, x)
	case tw.n(z).Right == tw.s:
		x = tw.n(z).Left
		tw.transplant(z, x)
	default:
		// Successor: minimum of right subtree.
		y = tw.n(z).Right
		for tw.n(y).Left != tw.s {
			y = tw.n(y).Left
		}
		yColor = tw.n(y).Color
		x = tw.n(y).Right
		if tw.n(y).Parent == z {
			tw.n(x).Parent = y
		} else {
			tw.transplant(y, x)
			tw.n(y).Right = tw.n(z).Right
			tw.n(tw.n(y).Right).Parent = y
		}
		tw.transplant(z, y)
		tw.n(y).Left = tw.n(z).Left
		tw.n(tw.n(y).Left).Parent = y
		tw.n(y).Color = tw.n(z).Color
	}
	if yColor == black {
		tw.deleteFixup(x)
	}
	tw.a.Count--
	return tw.tx.Free(z)
}

func (t *w) deleteFixup(x pangolin.OID) {
	for x != t.a.Root && t.n(x).Color == black {
		xp := t.n(x).Parent
		if x == t.n(xp).Left {
			wS := t.n(xp).Right
			if t.n(wS).Color == red {
				t.n(wS).Color = black
				t.n(xp).Color = red
				t.rotateLeft(xp)
				xp = t.n(x).Parent
				wS = t.n(xp).Right
			}
			if t.n(t.n(wS).Left).Color == black && t.n(t.n(wS).Right).Color == black {
				t.n(wS).Color = red
				x = xp
				continue
			}
			if t.n(t.n(wS).Right).Color == black {
				t.n(t.n(wS).Left).Color = black
				t.n(wS).Color = red
				t.rotateRight(wS)
				xp = t.n(x).Parent
				wS = t.n(xp).Right
			}
			t.n(wS).Color = t.n(xp).Color
			t.n(xp).Color = black
			t.n(t.n(wS).Right).Color = black
			t.rotateLeft(xp)
			x = t.a.Root
		} else {
			wS := t.n(xp).Left
			if t.n(wS).Color == red {
				t.n(wS).Color = black
				t.n(xp).Color = red
				t.rotateRight(xp)
				xp = t.n(x).Parent
				wS = t.n(xp).Left
			}
			if t.n(t.n(wS).Right).Color == black && t.n(t.n(wS).Left).Color == black {
				t.n(wS).Color = red
				x = xp
				continue
			}
			if t.n(t.n(wS).Left).Color == black {
				t.n(t.n(wS).Right).Color = black
				t.n(wS).Color = red
				t.rotateLeft(wS)
				xp = t.n(x).Parent
				wS = t.n(xp).Left
			}
			t.n(wS).Color = t.n(xp).Color
			t.n(xp).Color = black
			t.n(t.n(wS).Left).Color = black
			t.rotateRight(xp)
			x = t.a.Root
		}
	}
	t.n(x).Color = black
}

// run wraps a mutation in a transaction with the panic-to-error bridge.
func (t *Tree) run(fn func(*w) error) error {
	return t.p.Run(func(tx *pangolin.Tx) error { return t.runIn(tx, fn) })
}

// runIn executes fn against the caller's transaction, bridging the
// algorithm's access panics back to an error return (on which the caller
// must abort the transaction).
func (t *Tree) runIn(tx *pangolin.Tx, fn func(*w) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			te, ok := r.(treeErr)
			if !ok {
				panic(r)
			}
			err = te.err
		}
	}()
	a, aerr := pangolin.Open[anchor](tx, t.anchor)
	if aerr != nil {
		return aerr
	}
	return fn(&w{tx: tx, a: a, s: t.sentinel})
}

// Validate checks the red-black invariants (test helper): root is black,
// no red node has a red child, and every root-to-sentinel path has the
// same black height. It returns the tree's black height.
func (t *Tree) Validate() (int, error) {
	a, err := pangolin.GetFromPool[anchor](t.p, t.anchor)
	if err != nil {
		return 0, err
	}
	if a.Root == t.sentinel {
		return 0, nil
	}
	root, err := pangolin.GetFromPool[node](t.p, a.Root)
	if err != nil {
		return 0, err
	}
	if root.Color != black {
		return 0, fmt.Errorf("rbtree: root is red")
	}
	return t.validate(a.Root, 0, ^uint64(0))
}

func (t *Tree) validate(oid pangolin.OID, lo, hi uint64) (int, error) {
	if oid == t.sentinel {
		return 1, nil
	}
	n, err := pangolin.GetFromPool[node](t.p, oid)
	if err != nil {
		return 0, err
	}
	if n.Key < lo || n.Key > hi {
		return 0, fmt.Errorf("rbtree: BST order violated at key %d", n.Key)
	}
	if n.Color == red {
		for _, c := range []pangolin.OID{n.Left, n.Right} {
			if c == t.sentinel {
				continue
			}
			cn, err := pangolin.GetFromPool[node](t.p, c)
			if err != nil {
				return 0, err
			}
			if cn.Color == red {
				return 0, fmt.Errorf("rbtree: red-red violation at key %d", n.Key)
			}
		}
	}
	var hiL, loR uint64
	if n.Key > 0 {
		hiL = n.Key - 1
	}
	loR = n.Key + 1
	lh, err := t.validate(n.Left, lo, hiL)
	if err != nil {
		return 0, err
	}
	rh, err := t.validate(n.Right, loR, hi)
	if err != nil {
		return 0, err
	}
	if lh != rh {
		return 0, fmt.Errorf("rbtree: black-height mismatch at key %d (%d vs %d)", n.Key, lh, rh)
	}
	if n.Color == black {
		lh++
	}
	return lh, nil
}

// Range calls fn for every key/value pair in ascending key order,
// stopping early if fn returns false. Reads are direct (pgl_get); do not
// mutate the tree during iteration.
func (t *Tree) Range(fn func(k, v uint64) bool) error {
	return t.Scan(0, ^uint64(0), fn)
}

// Scan calls fn for every pair with lo <= k <= hi in ascending key
// order, stopping early if fn returns false; subtrees entirely outside
// the bounds are never read. It follows the kv.Map iteration contract:
// a mid-scan read fault aborts the walk and returns its error.
func (t *Tree) Scan(lo, hi uint64, fn func(k, v uint64) bool) error {
	if lo > hi {
		return nil
	}
	a, err := pangolin.GetFromPool[anchor](t.p, t.anchor)
	if err != nil {
		return err
	}
	_, err = t.scanInOrder(a.Root, lo, hi, fn)
	return err
}

func (t *Tree) scanInOrder(oid pangolin.OID, lo, hi uint64, fn func(k, v uint64) bool) (bool, error) {
	if oid == t.sentinel {
		return true, nil
	}
	n, err := pangolin.GetFromPool[node](t.p, oid)
	if err != nil {
		return false, err
	}
	// The left subtree holds keys < n.Key: worth visiting only when
	// n.Key > lo; symmetrically the right subtree only when n.Key < hi.
	if n.Key > lo {
		if cont, err := t.scanInOrder(n.Left, lo, hi, fn); err != nil || !cont {
			return cont, err
		}
	}
	if n.Key >= lo && n.Key <= hi {
		if !fn(n.Key, n.Value) {
			return false, nil
		}
	}
	if n.Key >= hi {
		return true, nil
	}
	return t.scanInOrder(n.Right, lo, hi, fn)
}
