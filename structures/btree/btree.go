// Package btree implements a persistent B-tree over uint64 keys, one of
// the six PMDK data-structure benchmarks (§4.5). Nodes are 304-byte
// Pangolin objects (Table 3), order 8 (up to 7 items and 8 children per
// node), like PMDK's btree_map.
//
// Insertion uses preemptive splitting (full children split during the
// descent); deletion is the classic CLRS algorithm that guarantees
// minimum degree on the way down via borrowing or merging.
package btree

import (
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

// node is the persistent layout: 304 bytes.
type node struct {
	N        uint64          // live items
	Items    [8]item         // capacity 8; logical max 7
	Children [9]pangolin.OID // Children[0..N] when internal
	_        [3]uint64
}

func (n *node) leaf() bool { return n.Children[0].IsNil() }

type anchor struct {
	Root  pangolin.OID
	Count uint64
}

// Tree is a handle to a persistent B-tree.
type Tree struct {
	p      *pangolin.Pool
	anchor pangolin.OID
}

// New allocates a fresh tree.
func New(p *pangolin.Pool) (*Tree, error) {
	var aOID pangolin.OID
	err := p.Run(func(tx *pangolin.Tx) error {
		var err error
		var a *anchor
		aOID, a, err = pangolin.Alloc[anchor](tx, typeNode)
		if err != nil {
			return err
		}
		rOID, _, err := pangolin.Alloc[node](tx, typeNode)
		if err != nil {
			return err
		}
		a.Root = rOID
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Tree{p: p, anchor: aOID}, nil
}

// Attach reconnects to an existing tree.
func Attach(p *pangolin.Pool, anchorOID pangolin.OID) (*Tree, error) {
	if _, err := p.ObjectSize(anchorOID); err != nil {
		return nil, err
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
	for !cur.IsNil() {
		n, err := pangolin.Read[node](get, cur)
		if err != nil {
			return 0, false, err
		}
		i := 0
		for i < int(n.N) && k > n.Items[i].Key {
			i++
		}
		if i < int(n.N) && k == n.Items[i].Key {
			return n.Items[i].Value, true, nil
		}
		if n.leaf() {
			return 0, false, nil
		}
		cur = n.Children[i]
	}
	return 0, false, nil
}

type treeErr struct{ err error }

type w struct {
	tx *pangolin.Tx
	a  *anchor
}

func (t *w) n(oid pangolin.OID) *node {
	p, err := pangolin.Open[node](t.tx, oid)
	if err != nil {
		panic(treeErr{err})
	}
	return p
}

// r reads a node without declaring a write (pgl_get semantics).
func (t *w) r(oid pangolin.OID) *node {
	p, err := pangolin.Get[node](t.tx, oid)
	if err != nil {
		panic(treeErr{err})
	}
	return p
}

func (t *w) alloc() (pangolin.OID, *node) {
	oid, n, err := pangolin.Alloc[node](t.tx, typeNode)
	if err != nil {
		panic(treeErr{err})
	}
	return oid, n
}

func (t *w) free(oid pangolin.OID) {
	if err := t.tx.Free(oid); err != nil {
		panic(treeErr{err})
	}
}

// splitChild splits the full child at index i of parent p (CLRS).
func (t *w) splitChild(pOID pangolin.OID, i int) {
	pn := t.n(pOID)
	cOID := pn.Children[i]
	cn := t.n(cOID)
	zOID, zn := t.alloc()
	// Right half (t..2t-2) moves to z; median (t-1) moves up.
	const th = (maxItems + 1) / 2 // t = 4
	zn.N = minItems
	for j := 0; j < minItems; j++ {
		zn.Items[j] = cn.Items[th+j]
		cn.Items[th+j] = item{}
	}
	if !cn.leaf() {
		for j := 0; j <= minItems; j++ {
			zn.Children[j] = cn.Children[th+j]
			cn.Children[th+j] = pangolin.NilOID
		}
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
	root := tw.a.Root
	if tw.r(root).N == maxItems {
		// Grow: new root with the old root as child 0.
		newOID, newRoot := tw.alloc()
		newRoot.Children[0] = root
		tw.a.Root = newOID
		tw.splitChild(newOID, 0)
		root = newOID
	}
	cur := root
	for {
		cn := tw.r(cur)
		i := 0
		for i < int(cn.N) && k > cn.Items[i].Key {
			i++
		}
		if i < int(cn.N) && k == cn.Items[i].Key {
			tw.n(cur).Items[i].Value = v
			return nil
		}
		if cn.leaf() {
			wn := tw.n(cur)
			for j := int(wn.N); j > i; j-- {
				wn.Items[j] = wn.Items[j-1]
			}
			wn.Items[i] = item{Key: k, Value: v}
			wn.N++
			tw.a.Count++
			return nil
		}
		if tw.r(cn.Children[i]).N == maxItems {
			tw.splitChild(cur, i)
			cn = tw.r(cur)
			if k == cn.Items[i].Key {
				tw.n(cur).Items[i].Value = v
				return nil
			}
			if k > cn.Items[i].Key {
				i++
			}
		}
		cur = tw.r(cur).Children[i]
	}
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
	found = tw.remove(tw.a.Root, k)
	if found {
		tw.a.Count--
	}
	// Shrink: an empty internal root is replaced by its only child.
	rn := tw.r(tw.a.Root)
	if rn.N == 0 && !rn.leaf() {
		old := tw.a.Root
		tw.a.Root = rn.Children[0]
		tw.free(old)
	}
	return nil
}

// remove deletes k from the subtree at oid; oid always has > minItems
// items when descending (except the root), per CLRS.
func (t *w) remove(oid pangolin.OID, k uint64) bool {
	n := t.r(oid)
	i := 0
	for i < int(n.N) && k > n.Items[i].Key {
		i++
	}
	if i < int(n.N) && k == n.Items[i].Key {
		if n.leaf() {
			wn := t.n(oid)
			for j := i; j < int(wn.N)-1; j++ {
				wn.Items[j] = wn.Items[j+1]
			}
			wn.Items[wn.N-1] = item{}
			wn.N--
			return true
		}
		return t.removeInternal(oid, i)
	}
	if n.leaf() {
		return false
	}
	return t.remove(t.ensureChild(oid, i), k)
}

// removeInternal removes the item at index i of internal node oid (CLRS
// cases 2a/2b/2c).
func (t *w) removeInternal(oid pangolin.OID, i int) bool {
	n := t.n(oid)
	k := n.Items[i].Key
	left, right := n.Children[i], n.Children[i+1]
	if t.n(left).N > minItems {
		// Predecessor replaces the item.
		pred := t.maxItem(left)
		n.Items[i] = pred
		return t.remove(t.ensureChild(oid, i), pred.Key)
	}
	if t.n(right).N > minItems {
		succ := t.minItem(right)
		n.Items[i] = succ
		return t.remove(t.ensureChild(oid, i+1), succ.Key)
	}
	// Merge left + item + right, then delete from the merged child.
	t.mergeChildren(oid, i)
	return t.remove(left, k)
}

func (t *w) maxItem(oid pangolin.OID) item {
	for {
		n := t.r(oid)
		if n.leaf() {
			return n.Items[n.N-1]
		}
		oid = n.Children[n.N]
	}
}

func (t *w) minItem(oid pangolin.OID) item {
	for {
		n := t.r(oid)
		if n.leaf() {
			return n.Items[0]
		}
		oid = n.Children[0]
	}
}

// ensureChild guarantees child i of oid has more than minItems items
// before descending, borrowing from a sibling or merging (CLRS case 3).
// It returns the (possibly merged) child to descend into.
func (t *w) ensureChild(oid pangolin.OID, i int) pangolin.OID {
	nr := t.r(oid)
	c := nr.Children[i]
	if t.r(c).N > minItems {
		return c
	}
	n := t.n(oid)
	// Borrow from the left sibling.
	if i > 0 && t.r(n.Children[i-1]).N > minItems {
		ln := t.n(n.Children[i-1])
		cn := t.n(c)
		for j := int(cn.N); j > 0; j-- {
			cn.Items[j] = cn.Items[j-1]
		}
		if !cn.leaf() {
			for j := int(cn.N) + 1; j > 0; j-- {
				cn.Children[j] = cn.Children[j-1]
			}
			cn.Children[0] = ln.Children[ln.N]
			ln.Children[ln.N] = pangolin.NilOID
		}
		cn.Items[0] = n.Items[i-1]
		cn.N++
		n.Items[i-1] = ln.Items[ln.N-1]
		ln.Items[ln.N-1] = item{}
		ln.N--
		return c
	}
	// Borrow from the right sibling.
	if i < int(n.N) && t.r(n.Children[i+1]).N > minItems {
		rn := t.n(n.Children[i+1])
		cn := t.n(c)
		cn.Items[cn.N] = n.Items[i]
		if !cn.leaf() {
			cn.Children[cn.N+1] = rn.Children[0]
		}
		cn.N++
		n.Items[i] = rn.Items[0]
		for j := 0; j < int(rn.N)-1; j++ {
			rn.Items[j] = rn.Items[j+1]
		}
		rn.Items[rn.N-1] = item{}
		if !rn.leaf() {
			for j := 0; j < int(rn.N); j++ {
				rn.Children[j] = rn.Children[j+1]
			}
			rn.Children[rn.N] = pangolin.NilOID
		}
		rn.N--
		return c
	}
	// Merge with a sibling.
	if i < int(n.N) {
		t.mergeChildren(oid, i)
		return c
	}
	t.mergeChildren(oid, i-1)
	return n.Children[i-1]
}

// mergeChildren merges child i, item i, and child i+1 of oid into child i
// and frees child i+1.
func (t *w) mergeChildren(oid pangolin.OID, i int) {
	n := t.n(oid)
	left, right := n.Children[i], n.Children[i+1]
	ln, rn := t.n(left), t.n(right)
	ln.Items[ln.N] = n.Items[i]
	for j := 0; j < int(rn.N); j++ {
		ln.Items[int(ln.N)+1+j] = rn.Items[j]
	}
	if !ln.leaf() {
		for j := 0; j <= int(rn.N); j++ {
			ln.Children[int(ln.N)+1+j] = rn.Children[j]
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
	_, err = t.scanWalk(a.Root, lo, hi, fn)
	return err
}

func (t *Tree) scanWalk(oid pangolin.OID, lo, hi uint64, fn func(k, v uint64) bool) (bool, error) {
	n, err := pangolin.GetFromPool[node](t.p, oid)
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
		if !n.leaf() {
			if cont, err := t.scanWalk(n.Children[i], lo, hi, fn); err != nil || !cont {
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
	if !n.leaf() {
		return t.scanWalk(n.Children[n.N], lo, hi, fn)
	}
	return true, nil
}
