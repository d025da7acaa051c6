// Package btree implements a persistent B-tree over uint64 keys, one of
// the six PMDK data-structure benchmarks (§4.5), order 8 (up to 7 items
// and 8 children per node) like PMDK's btree_map. Internal nodes are
// 304-byte Pangolin objects (Table 3). Leaves are 120-byte objects that
// hold only their count and items: PMDK's node keeps a child array in
// every node, and a leaf — four in five nodes — would leave its 144 bytes
// nil, yet reserve them, and copy, log and fold them into parity at every
// write. This departs from Table 3 the way the hashmap's inline pairs do;
// its btree row measures this layout.
//
// Every leaf sits at one depth, the tree's height, which the anchor keeps
// beside the root. A descent counts levels down from it, so it knows
// which layout each node has before it reads it. A leaf's layout is the
// prefix of an internal node's (count, then items), so code that moves
// items sees both through the leaf type.
//
// Insertion uses preemptive splitting (full children split during the
// descent); deletion is the classic CLRS algorithm that guarantees
// minimum degree on the way down via borrowing or merging.
//
// Attach refuses, with ErrAnchorFormat, an anchor of another size: a tree
// written before the split layout has a 24-byte anchor with no height.
package btree

import (
	"errors"
	"fmt"
	"unsafe"

	"github.com/pangolin-go/pangolin"
)

const typeNode = 0x62 // 'b'

const (
	maxItems = 7 // 2t-1 with t = 4
	minItems = 3 // t-1
)

type item struct {
	Key   uint64
	Value uint64
}

// leaf is a leaf's persistent layout, 120 bytes, and the items view of
// every node.
type leaf struct {
	N     uint64         // live items
	Items [maxItems]item // Items[0..N)
}

// inner is an internal node's persistent layout, 304 bytes: PMDK's node
// with a spare item slot (Table 3).
type inner struct {
	leaf
	_        item
	Children [9]pangolin.OID // Children[0..N]
	_        [3]uint64
}

// search returns the index of the first item whose key is at least k,
// and whether that item's key is k.
func (n *leaf) search(k uint64) (int, bool) {
	i := 0
	for i < int(n.N) && k > n.Items[i].Key {
		i++
	}
	return i, i < int(n.N) && n.Items[i].Key == k
}

type anchor struct {
	Root   pangolin.OID
	Count  uint64
	Height uint64 // levels above the leaves: 0 while the root is a leaf
}

const anchorSize = uint64(unsafe.Sizeof(anchor{}))

// ErrAnchorFormat reports an anchor that is not this version's — a tree
// written before leaves dropped their child array, or not a btree at
// all. Such a tree must be rebuilt.
var ErrAnchorFormat = errors.New("btree: unsupported anchor format")

// Tree is a handle to a persistent B-tree.
type Tree struct {
	p      *pangolin.Pool
	anchor pangolin.OID
}

// New allocates a fresh tree: an anchor over an empty leaf.
func New(p *pangolin.Pool) (*Tree, error) {
	var aOID pangolin.OID
	err := p.Run(func(tx *pangolin.Tx) error {
		var err error
		var a *anchor
		aOID, a, err = pangolin.Alloc[anchor](tx, typeNode)
		if err != nil {
			return err
		}
		a.Root, _, err = pangolin.Alloc[leaf](tx, typeNode)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &Tree{p: p, anchor: aOID}, nil
}

// Attach reconnects to an existing tree, or fails with ErrAnchorFormat if
// the anchor is not this version's layout.
func Attach(p *pangolin.Pool, anchorOID pangolin.OID) (*Tree, error) {
	size, err := p.ObjectSize(anchorOID)
	if err != nil {
		return nil, err
	}
	if size != anchorSize {
		return nil, fmt.Errorf("%w: anchor is %d bytes, want %d", ErrAnchorFormat, size, anchorSize)
	}
	return &Tree{p: p, anchor: anchorOID}, nil
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

// Lookup finds k with direct reads. It is a pure read (no pool writes,
// no handle state), honoring the kv.Map concurrent-read contract: on a
// ReadView instance it may run concurrently with other Lookups, gated
// against commits by the caller.
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
	for h := a.Height; h > 0; h-- {
		n, err := pangolin.Read[inner](get, cur)
		if err != nil {
			return 0, false, err
		}
		i, found := n.search(k)
		if found {
			return n.Items[i].Value, true, nil
		}
		cur = n.Children[i]
	}
	n, err := pangolin.Read[leaf](get, cur)
	if err != nil {
		return 0, false, err
	}
	if i, found := n.search(k); found {
		return n.Items[i].Value, true, nil
	}
	return 0, false, nil
}

type treeErr struct{ err error }

type w struct {
	tx *pangolin.Tx
	a  *anchor
}

// open returns a writable view of the object at oid as T.
func open[T any](t *w, oid pangolin.OID) *T {
	p, err := pangolin.Open[T](t.tx, oid)
	if err != nil {
		panic(treeErr{err})
	}
	return p
}

// get reads the object at oid as T without declaring a write (pgl_get
// semantics).
func get[T any](t *w, oid pangolin.OID) *T {
	p, err := pangolin.Get[T](t.tx, oid)
	if err != nil {
		panic(treeErr{err})
	}
	return p
}

func alloc[T any](t *w) (pangolin.OID, *T) {
	oid, n, err := pangolin.Alloc[T](t.tx, typeNode)
	if err != nil {
		panic(treeErr{err})
	}
	return oid, n
}

// n opens the node at oid, of height h, for writing: its items, and the
// node itself when it is internal (nil for a leaf).
func (t *w) n(oid pangolin.OID, h uint64) (*leaf, *inner) {
	if h == 0 {
		return open[leaf](t, oid), nil
	}
	in := open[inner](t, oid)
	return &in.leaf, in
}

// r reads the items of the node at oid, of height h.
func (t *w) r(oid pangolin.OID, h uint64) *leaf {
	if h == 0 {
		return get[leaf](t, oid)
	}
	return &get[inner](t, oid).leaf
}

func (t *w) free(oid pangolin.OID) {
	if err := t.tx.Free(oid); err != nil {
		panic(treeErr{err})
	}
}

// splitChild splits the full child at index i of internal node pOID
// (CLRS); h is the child's height, and the new right sibling's.
func (t *w) splitChild(pOID pangolin.OID, i int, h uint64) {
	pn := open[inner](t, pOID)
	cOID := pn.Children[i]
	var zOID pangolin.OID
	var cn, zn *leaf
	// Right half (t..2t-2) moves to z; median (t-1) moves up.
	const th = (maxItems + 1) / 2 // t = 4
	if h == 0 {
		cn = open[leaf](t, cOID)
		zOID, zn = alloc[leaf](t)
	} else {
		ci := open[inner](t, cOID)
		var zi *inner
		zOID, zi = alloc[inner](t)
		for j := 0; j <= minItems; j++ {
			zi.Children[j] = ci.Children[th+j]
			ci.Children[th+j] = pangolin.NilOID
		}
		cn, zn = &ci.leaf, &zi.leaf
	}
	zn.N = minItems
	for j := 0; j < minItems; j++ {
		zn.Items[j] = cn.Items[th+j]
		cn.Items[th+j] = item{}
	}
	median := cn.Items[th-1]
	cn.Items[th-1] = item{}
	cn.N = minItems
	// Shift parent items/children right.
	for j := int(pn.N); j > i; j-- {
		pn.Items[j] = pn.Items[j-1]
		pn.Children[j+1] = pn.Children[j]
	}
	pn.Items[i] = median
	pn.Children[i+1] = zOID
	pn.N++
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
	cur, h := tw.a.Root, tw.a.Height
	if tw.r(cur, h).N == maxItems {
		// Grow: a new internal root with the old root as child 0.
		newOID, newRoot := alloc[inner](tw)
		newRoot.Children[0] = cur
		tw.a.Root = newOID
		tw.a.Height++
		tw.splitChild(newOID, 0, h)
		cur, h = newOID, h+1
	}
	for ; h > 0; h-- {
		cn := get[inner](tw, cur)
		i, found := cn.search(k)
		if found {
			open[inner](tw, cur).Items[i].Value = v
			return nil
		}
		if tw.r(cn.Children[i], h-1).N == maxItems {
			tw.splitChild(cur, i, h-1)
			cn = get[inner](tw, cur)
			if k == cn.Items[i].Key {
				open[inner](tw, cur).Items[i].Value = v
				return nil
			}
			if k > cn.Items[i].Key {
				i++
			}
		}
		cur = cn.Children[i]
	}
	wn := open[leaf](tw, cur)
	i, found := wn.search(k)
	if found {
		wn.Items[i].Value = v
		return nil
	}
	for j := int(wn.N); j > i; j-- {
		wn.Items[j] = wn.Items[j-1]
	}
	wn.Items[i] = item{Key: k, Value: v}
	wn.N++
	tw.a.Count++
	return nil
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

func (t *Tree) removeW(tw *w, k uint64, foundp *bool) error {
	found := false
	defer func() { *foundp = found }()
	found = tw.remove(tw.a.Root, tw.a.Height, k)
	if found {
		tw.a.Count--
	}
	// Shrink: an empty internal root is replaced by its only child.
	if tw.a.Height > 0 {
		if rn := get[inner](tw, tw.a.Root); rn.N == 0 {
			old := tw.a.Root
			tw.a.Root = rn.Children[0]
			tw.a.Height--
			tw.free(old)
		}
	}
	return nil
}

// remove deletes k from the subtree at oid, of height h; oid always has
// > minItems items when descending (except the root), per CLRS.
func (t *w) remove(oid pangolin.OID, h uint64, k uint64) bool {
	i, found := t.r(oid, h).search(k)
	if h > 0 {
		if found {
			return t.removeInternal(oid, h, i)
		}
		return t.remove(t.ensureChild(oid, h, i), h-1, k)
	}
	if !found {
		return false
	}
	wn := open[leaf](t, oid)
	for j := i; j < int(wn.N)-1; j++ {
		wn.Items[j] = wn.Items[j+1]
	}
	wn.Items[wn.N-1] = item{}
	wn.N--
	return true
}

// removeInternal removes the item at index i of internal node oid, of
// height h (CLRS cases 2a/2b/2c).
func (t *w) removeInternal(oid pangolin.OID, h uint64, i int) bool {
	n := open[inner](t, oid)
	k := n.Items[i].Key
	left, right := n.Children[i], n.Children[i+1]
	if t.r(left, h-1).N > minItems {
		// Predecessor replaces the item.
		pred := t.maxItem(left, h-1)
		n.Items[i] = pred
		return t.remove(t.ensureChild(oid, h, i), h-1, pred.Key)
	}
	if t.r(right, h-1).N > minItems {
		succ := t.minItem(right, h-1)
		n.Items[i] = succ
		return t.remove(t.ensureChild(oid, h, i+1), h-1, succ.Key)
	}
	// Merge left + item + right, then delete from the merged child.
	t.mergeChildren(oid, h, i)
	return t.remove(left, h-1, k)
}

func (t *w) maxItem(oid pangolin.OID, h uint64) item {
	for ; h > 0; h-- {
		n := get[inner](t, oid)
		oid = n.Children[n.N]
	}
	n := get[leaf](t, oid)
	return n.Items[n.N-1]
}

func (t *w) minItem(oid pangolin.OID, h uint64) item {
	for ; h > 0; h-- {
		oid = get[inner](t, oid).Children[0]
	}
	return get[leaf](t, oid).Items[0]
}

// ensureChild guarantees child i of internal node oid, of height h, has
// more than minItems items before descending, borrowing from a sibling or
// merging (CLRS case 3). It returns the (possibly merged) child to
// descend into.
func (t *w) ensureChild(oid pangolin.OID, h uint64, i int) pangolin.OID {
	c := get[inner](t, oid).Children[i]
	if t.r(c, h-1).N > minItems {
		return c
	}
	n := open[inner](t, oid)
	// Borrow from the left sibling.
	if i > 0 && t.r(n.Children[i-1], h-1).N > minItems {
		ln, li := t.n(n.Children[i-1], h-1)
		cn, ci := t.n(c, h-1)
		for j := int(cn.N); j > 0; j-- {
			cn.Items[j] = cn.Items[j-1]
		}
		if ci != nil {
			for j := int(cn.N) + 1; j > 0; j-- {
				ci.Children[j] = ci.Children[j-1]
			}
			ci.Children[0] = li.Children[ln.N]
			li.Children[ln.N] = pangolin.NilOID
		}
		cn.Items[0] = n.Items[i-1]
		cn.N++
		n.Items[i-1] = ln.Items[ln.N-1]
		ln.Items[ln.N-1] = item{}
		ln.N--
		return c
	}
	// Borrow from the right sibling.
	if i < int(n.N) && t.r(n.Children[i+1], h-1).N > minItems {
		rn, ri := t.n(n.Children[i+1], h-1)
		cn, ci := t.n(c, h-1)
		cn.Items[cn.N] = n.Items[i]
		if ci != nil {
			ci.Children[cn.N+1] = ri.Children[0]
		}
		cn.N++
		n.Items[i] = rn.Items[0]
		for j := 0; j < int(rn.N)-1; j++ {
			rn.Items[j] = rn.Items[j+1]
		}
		rn.Items[rn.N-1] = item{}
		if ri != nil {
			for j := 0; j < int(rn.N); j++ {
				ri.Children[j] = ri.Children[j+1]
			}
			ri.Children[rn.N] = pangolin.NilOID
		}
		rn.N--
		return c
	}
	// Merge with a sibling.
	if i < int(n.N) {
		t.mergeChildren(oid, h, i)
		return c
	}
	t.mergeChildren(oid, h, i-1)
	return n.Children[i-1]
}

// mergeChildren merges child i, item i, and child i+1 of internal node
// oid, of height h, into child i and frees child i+1.
func (t *w) mergeChildren(oid pangolin.OID, h uint64, i int) {
	n := open[inner](t, oid)
	left, right := n.Children[i], n.Children[i+1]
	ln, li := t.n(left, h-1)
	rn, ri := t.n(right, h-1)
	ln.Items[ln.N] = n.Items[i]
	for j := 0; j < int(rn.N); j++ {
		ln.Items[int(ln.N)+1+j] = rn.Items[j]
	}
	if li != nil {
		for j := 0; j <= int(rn.N); j++ {
			li.Children[int(ln.N)+1+j] = ri.Children[j]
		}
	}
	ln.N += rn.N + 1
	for j := i; j < int(n.N)-1; j++ {
		n.Items[j] = n.Items[j+1]
		n.Children[j+1] = n.Children[j+2]
	}
	n.Items[n.N-1] = item{}
	n.Children[n.N] = pangolin.NilOID
	n.N--
	t.free(right)
}

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
	return fn(&w{tx: tx, a: a})
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
// a mid-scan read fault aborts the walk and returns its error, so a nil
// return means fn saw every in-range pair it did not stop early of.
func (t *Tree) Scan(lo, hi uint64, fn func(k, v uint64) bool) error {
	if lo > hi {
		return nil
	}
	a, err := pangolin.GetFromPool[anchor](t.p, t.anchor)
	if err != nil {
		return err
	}
	_, err = t.scanWalk(a.Root, a.Height, lo, hi, fn)
	return err
}

// scanWalk scans the subtree at oid, of height h.
func (t *Tree) scanWalk(oid pangolin.OID, h uint64, lo, hi uint64, fn func(k, v uint64) bool) (bool, error) {
	var n *leaf
	var in *inner
	var err error
	if h == 0 {
		n, err = pangolin.GetFromPool[leaf](t.p, oid)
	} else if in, err = pangolin.GetFromPool[inner](t.p, oid); err == nil {
		n = &in.leaf
	}
	if err != nil {
		return false, err
	}
	// Items below i hold keys < lo, and so do their child subtrees;
	// child i is the first that can reach [lo, hi].
	i := 0
	for i < int(n.N) && n.Items[i].Key < lo {
		i++
	}
	for ; i < int(n.N); i++ {
		if in != nil {
			if cont, err := t.scanWalk(in.Children[i], h-1, lo, hi, fn); err != nil || !cont {
				return cont, err
			}
		}
		if n.Items[i].Key > hi {
			return false, nil
		}
		if !fn(n.Items[i].Key, n.Items[i].Value) {
			return false, nil
		}
	}
	if in != nil {
		return t.scanWalk(in.Children[n.N], h-1, lo, hi, fn)
	}
	return true, nil
}
