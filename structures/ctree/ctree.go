// Package ctree implements a persistent crit-bit tree over uint64 keys,
// the first of the six PMDK data-structure benchmarks the paper evaluates
// (§4.5). Every node is a 56-byte Pangolin object (Table 3).
//
// A crit-bit tree stores keys at leaves; each internal node records the
// most significant bit position at which its two subtrees differ.
// Lookups walk bit decisions without comparisons; inserts add exactly one
// leaf and one internal node; removals collapse one internal node.
package ctree

import (
	"github.com/pangolin-go/pangolin"
)

// typeNode is the object type id for tree nodes.
const typeNode = 0x63 // 'c'

// node is the persistent node layout: 56 bytes, matching the paper's
// ctree object size. Internal nodes use Child and Diff; leaves hold
// Key/Value and Diff == leafDiff.
type node struct {
	Child [2]pangolin.OID // 32 B
	Key   uint64
	Value uint64
	Diff  uint32 // critical bit index (63 = MSB); leafDiff for leaves
	_     uint32
}

const leafDiff = ^uint32(0)

// anchor is the persistent root record.
type anchor struct {
	Root  pangolin.OID
	Count uint64
}

// Tree is a handle to a persistent crit-bit tree.
type Tree struct {
	p      *pangolin.Pool
	anchor pangolin.OID
}

// New allocates a fresh tree in the pool.
func New(p *pangolin.Pool) (*Tree, error) {
	var oid pangolin.OID
	err := p.Run(func(tx *pangolin.Tx) error {
		var err error
		oid, _, err = pangolin.Alloc[anchor](tx, typeNode)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &Tree{p: p, anchor: oid}, nil
}

// Attach reconnects to a tree created earlier.
func Attach(p *pangolin.Pool, anchorOID pangolin.OID) (*Tree, error) {
	if _, err := p.ObjectSize(anchorOID); err != nil {
		return nil, err
	}
	return &Tree{p: p, anchor: anchorOID}, nil
}

// Anchor returns the tree's persistent anchor OID.
func (t *Tree) Anchor() pangolin.OID { return t.anchor }

// bit reports bit i of k (i = 63 is the most significant).
func bit(k uint64, i uint32) int { return int(k>>i) & 1 }

// msbDiff returns the index of the most significant differing bit.
func msbDiff(a, b uint64) uint32 {
	x := a ^ b
	i := uint32(63)
	for x>>i == 0 {
		i--
	}
	return i
}

// Lookup finds k without micro-buffering (direct reads). It is a pure
// read (no pool writes, no handle state), honoring the kv.Map
// concurrent-read contract: on a ReadView instance it may run
// concurrently with other Lookups, gated against commits by the caller.
func (t *Tree) Lookup(k uint64) (uint64, bool, error) { return t.lookup(t.p.Get, k) }

// LookupTx is Lookup inside the caller's transaction: reads come from the
// transaction's micro-buffers when it has nodes open, so the caller's own
// uncommitted inserts and removes are visible.
func (t *Tree) LookupTx(tx *pangolin.Tx, k uint64) (uint64, bool, error) {
	return t.lookup(tx.Get, k)
}

// lookup finds k, reading each node through get.
func (t *Tree) lookup(get pangolin.Getter, k uint64) (uint64, bool, error) {
	a, err := pangolin.Read[anchor](get, t.anchor)
	if err != nil || a.Root.IsNil() {
		return 0, false, err
	}
	_, leaf, err := leafFor(get, a.Root, k)
	if err != nil || leaf.Key != k {
		return 0, false, err
	}
	return leaf.Value, true, nil
}

// leafFor walks from the non-nil root to the leaf k's bits lead to.
func leafFor(get pangolin.Getter, root pangolin.OID, k uint64) (pangolin.OID, *node, error) {
	for cur := root; ; {
		n, err := pangolin.Read[node](get, cur)
		if err != nil || n.Diff == leafDiff {
			return cur, n, err
		}
		cur = n.Child[bit(k, n.Diff)]
	}
}

// Insert adds or updates k in one transaction.
func (t *Tree) Insert(k, v uint64) error {
	return t.p.Run(func(tx *pangolin.Tx) error { return t.InsertTx(tx, k, v) })
}

// InsertTx adds or updates k inside the caller's transaction.
func (t *Tree) InsertTx(tx *pangolin.Tx, k, v uint64) error {
	a, err := pangolin.Open[anchor](tx, t.anchor)
	if err != nil {
		return err
	}
	if a.Root.IsNil() {
		leafOID, leaf, err := pangolin.Alloc[node](tx, typeNode)
		if err != nil {
			return err
		}
		*leaf = node{Key: k, Value: v, Diff: leafDiff}
		a.Root = leafOID
		a.Count++
		return nil
	}
	// Find the leaf the key would reach.
	cur, leaf, err := leafFor(tx.Get, a.Root, k)
	if err != nil {
		return err
	}
	if leaf.Key == k {
		// In-place value update.
		w, err := pangolin.Open[node](tx, cur)
		if err != nil {
			return err
		}
		w.Value = v
		return nil
	}
	d := msbDiff(leaf.Key, k)
	// Walk again to the insertion point: the first node whose Diff
	// is below d (or a leaf).
	parent := pangolin.NilOID
	parentDir := 0
	cur = a.Root
	for {
		n, err := pangolin.Get[node](tx, cur)
		if err != nil {
			return err
		}
		if n.Diff == leafDiff || n.Diff < d {
			break
		}
		parent = cur
		parentDir = bit(k, n.Diff)
		cur = n.Child[parentDir]
	}
	// New leaf and new internal node above cur.
	leafOID, newLeaf, err := pangolin.Alloc[node](tx, typeNode)
	if err != nil {
		return err
	}
	*newLeaf = node{Key: k, Value: v, Diff: leafDiff}
	innerOID, inner, err := pangolin.Alloc[node](tx, typeNode)
	if err != nil {
		return err
	}
	inner.Diff = d
	inner.Child[bit(k, d)] = leafOID
	inner.Child[1-bit(k, d)] = cur
	if parent.IsNil() {
		a.Root = innerOID
	} else {
		pn, err := pangolin.Open[node](tx, parent)
		if err != nil {
			return err
		}
		pn.Child[parentDir] = innerOID
	}
	a.Count++
	return nil
}

// Remove deletes k, reporting whether it was present.
func (t *Tree) Remove(k uint64) (bool, error) {
	found := false
	err := t.p.Run(func(tx *pangolin.Tx) error {
		var err error
		found, err = t.RemoveTx(tx, k)
		return err
	})
	return found, err
}

// RemoveTx deletes k inside the caller's transaction.
func (t *Tree) RemoveTx(tx *pangolin.Tx, k uint64) (bool, error) {
	a, err := pangolin.Open[anchor](tx, t.anchor)
	if err != nil {
		return false, err
	}
	if a.Root.IsNil() {
		return false, nil
	}
	// Track leaf, its parent, and grandparent.
	var gparent, parent pangolin.OID
	gdir, pdir := 0, 0
	cur := a.Root
	for {
		n, err := pangolin.Get[node](tx, cur)
		if err != nil {
			return false, err
		}
		if n.Diff == leafDiff {
			if n.Key != k {
				return false, nil
			}
			break
		}
		gparent, gdir = parent, pdir
		parent, pdir = cur, bit(k, n.Diff)
		cur = n.Child[pdir]
	}
	if parent.IsNil() {
		// The leaf was the root.
		a.Root = pangolin.NilOID
		a.Count--
		return true, tx.Free(cur)
	}
	pn, err := pangolin.Get[node](tx, parent)
	if err != nil {
		return false, err
	}
	sibling := pn.Child[1-pdir]
	if gparent.IsNil() {
		a.Root = sibling
	} else {
		gn, err := pangolin.Open[node](tx, gparent)
		if err != nil {
			return false, err
		}
		gn.Child[gdir] = sibling
	}
	a.Count--
	if err := tx.Free(cur); err != nil {
		return true, err
	}
	return true, tx.Free(parent)
}

// Len returns the number of keys.
func (t *Tree) Len() (uint64, error) {
	a, err := pangolin.GetFromPool[anchor](t.p, t.anchor)
	if err != nil {
		return 0, err
	}
	return a.Count, nil
}

// Range calls fn for every key/value pair in ascending key order,
// stopping early if fn returns false. Reads are direct (pgl_get); do not
// mutate the tree during iteration.
func (t *Tree) Range(fn func(k, v uint64) bool) error {
	return t.Scan(0, ^uint64(0), fn)
}

// Scan calls fn for every pair with lo <= k <= hi in ascending key
// order, stopping early if fn returns false. Internal crit-bit nodes do
// not record their subtree's common prefix, so the walk cannot prune
// below lo without extra leaf reads; it skips leaves under lo and stops
// at the first leaf beyond hi (in-order, so nothing after it can
// qualify). It follows the kv.Map iteration contract: a mid-scan read
// fault aborts the walk and returns its error.
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

// scanWalk visits the subtree in order; crit-bit children are ordered by
// the critical bit, so child 0 precedes child 1 in key order.
func (t *Tree) scanWalk(oid pangolin.OID, lo, hi uint64, fn func(k, v uint64) bool) (bool, error) {
	if oid.IsNil() {
		return true, nil
	}
	n, err := pangolin.GetFromPool[node](t.p, oid)
	if err != nil {
		return false, err
	}
	if n.Diff == leafDiff {
		if n.Key < lo {
			return true, nil
		}
		if n.Key > hi {
			return false, nil
		}
		return fn(n.Key, n.Value), nil
	}
	for _, c := range n.Child {
		cont, err := t.scanWalk(c, lo, hi, fn)
		if err != nil || !cont {
			return cont, err
		}
	}
	return true, nil
}
