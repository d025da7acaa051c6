// Package rtree implements a persistent radix tree (256-ary trie) over
// uint64 keys, one of the six PMDK data-structure benchmarks (§4.5).
// Nodes are 4136-byte Pangolin objects (Table 3) — the large-object
// workload that stresses micro-buffer copying and checksum costs most
// (Figures 5 and 6).
//
// Keys are consumed a byte at a time, most significant byte first, giving
// a fixed depth of 8; values live in the level-8 leaf nodes. Removal
// prunes empty path nodes.
package rtree

import (
	"github.com/pangolin-go/pangolin"
)

const typeNode = 0x74 // 't'

const fanout = 256

// node is the persistent layout: 256*16 + 8 + 8 + 24 = 4136 bytes.
type node struct {
	Children [fanout]pangolin.OID
	Value    uint64
	Refs     uint64 // live children (internal) — drives pruning
	_        [3]uint64
}

type anchor struct {
	Root  pangolin.OID
	Count uint64
}

// Tree is a handle to a persistent radix tree.
type Tree struct {
	p      *pangolin.Pool
	anchor pangolin.OID
}

// New allocates a fresh tree (root node included).
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

// keyByte returns byte d (0 = most significant) of k.
func keyByte(k uint64, d int) byte { return byte(k >> (56 - 8*d)) }

// Field offsets within the node's user data, for ranged updates: a 4 KB
// node changes only one child slot plus its counters per operation.
const (
	offValue = fanout * 16 // Value follows Children
	offRefs  = offValue + 8
)

// openSlot declares child slot b of oid modified and returns the node
// view.
func openSlot(tx *pangolin.Tx, oid pangolin.OID, b byte) (*node, error) {
	if _, err := tx.AddRange(oid, uint64(b)*16, 16); err != nil {
		return nil, err
	}
	data, err := tx.AddRange(oid, offRefs, 8)
	if err != nil {
		return nil, err
	}
	return pangolin.View[node](data)
}

// depth is the trie depth: 8 key bytes, values at the last level's leaf.
const depth = 8

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
	for d := 0; d < depth; d++ {
		n, err := pangolin.Read[node](get, cur)
		if err != nil {
			return 0, false, err
		}
		cur = n.Children[keyByte(k, d)]
		if cur.IsNil() {
			return 0, false, nil
		}
	}
	leaf, err := pangolin.Read[node](get, cur)
	if err != nil {
		return 0, false, err
	}
	if leaf.Refs == 0 {
		return 0, false, nil
	}
	return leaf.Value, true, nil
}

// Insert adds or updates k in one transaction, allocating the missing
// path nodes.
func (t *Tree) Insert(k, v uint64) error {
	return t.p.Run(func(tx *pangolin.Tx) error { return t.InsertTx(tx, k, v) })
}

// InsertTx adds or updates k inside the caller's transaction.
func (t *Tree) InsertTx(tx *pangolin.Tx, k, v uint64) error {
	a, err := pangolin.Open[anchor](tx, t.anchor)
	if err != nil {
		return err
	}
	cur := a.Root
	for d := 0; d < depth; d++ {
		b := keyByte(k, d)
		n, err := pangolin.Get[node](tx, cur)
		if err != nil {
			return err
		}
		child := n.Children[b]
		if child.IsNil() {
			childOID, _, err := pangolin.Alloc[node](tx, typeNode)
			if err != nil {
				return err
			}
			wn, err := openSlot(tx, cur, b)
			if err != nil {
				return err
			}
			wn.Children[b] = childOID
			wn.Refs++
			child = childOID
		}
		cur = child
	}
	// Leaf: declare only the value and liveness fields.
	data, err := tx.AddRange(cur, offValue, 16)
	if err != nil {
		return err
	}
	leaf, err := pangolin.View[node](data)
	if err != nil {
		return err
	}
	if leaf.Refs == 0 {
		a.Count++
	}
	leaf.Refs = 1 // leaf liveness marker
	leaf.Value = v
	return nil
}

// Remove deletes k, pruning now-empty path nodes, and reports whether the
// key was present.
func (t *Tree) Remove(k uint64) (bool, error) {
	found := false
	err := t.p.Run(func(tx *pangolin.Tx) error {
		var err error
		found, err = t.RemoveTx(tx, k)
		return err
	})
	return found, err
}

// RemoveTx deletes k inside the caller's transaction, reporting whether it
// was present.
func (t *Tree) RemoveTx(tx *pangolin.Tx, k uint64) (bool, error) {
	found := false
	err := func() error {
		a, err := pangolin.Open[anchor](tx, t.anchor)
		if err != nil {
			return err
		}
		// Record the path.
		var path [depth]pangolin.OID
		cur := a.Root
		for d := 0; d < depth; d++ {
			path[d] = cur
			n, err := pangolin.Get[node](tx, cur)
			if err != nil {
				return err
			}
			cur = n.Children[keyByte(k, d)]
			if cur.IsNil() {
				return nil
			}
		}
		leaf, err := pangolin.Get[node](tx, cur)
		if err != nil {
			return err
		}
		if leaf.Refs == 0 {
			return nil
		}
		found = true
		a.Count--
		// Free the leaf and prune upward while nodes empty out.
		victim := cur
		for d := depth - 1; d >= 0; d-- {
			pn, err := openSlot(tx, path[d], keyByte(k, d))
			if err != nil {
				return err
			}
			pn.Children[keyByte(k, d)] = pangolin.NilOID
			pn.Refs--
			if err := tx.Free(victim); err != nil {
				return err
			}
			if pn.Refs > 0 || d == 0 {
				break
			}
			victim = path[d]
		}
		return nil
	}()
	return found, err
}

// Range calls fn for every key/value pair in ascending key order (trie
// children visited byte-ascending), stopping early if fn returns false.
// Reads are direct (pgl_get); do not mutate the tree during iteration.
func (t *Tree) Range(fn func(k, v uint64) bool) error {
	return t.Scan(0, ^uint64(0), fn)
}

// Scan calls fn for every pair with lo <= k <= hi in ascending key
// order, stopping early if fn returns false. A child at depth d spans
// the fixed key interval [prefix, prefix|mask] (keys are consumed one
// byte per level), so subtrees entirely outside the bounds are pruned
// without being read. It follows the kv.Map iteration contract: a
// mid-scan read fault aborts the walk and returns its error.
func (t *Tree) Scan(lo, hi uint64, fn func(k, v uint64) bool) error {
	if lo > hi {
		return nil
	}
	a, err := pangolin.GetFromPool[anchor](t.p, t.anchor)
	if err != nil {
		return err
	}
	_, err = t.scanWalk(a.Root, 0, 0, lo, hi, fn)
	return err
}

func (t *Tree) scanWalk(oid pangolin.OID, d int, prefix, lo, hi uint64, fn func(k, v uint64) bool) (bool, error) {
	n, err := pangolin.GetFromPool[node](t.p, oid)
	if err != nil {
		return false, err
	}
	if d == depth {
		if n.Refs == 0 {
			return true, nil
		}
		return fn(prefix, n.Value), nil
	}
	// The subtree under child b spans exactly [next, next|mask]: the
	// remaining depth-d-1 … 0 bytes are free below it.
	mask := uint64(1)<<(56-8*d) - 1
	for b := 0; b < fanout; b++ {
		c := n.Children[b]
		if c.IsNil() {
			continue
		}
		next := prefix | uint64(b)<<(56-8*d)
		if next > hi {
			return false, nil // children ascend; nothing further qualifies
		}
		if next|mask < lo {
			continue
		}
		if cont, err := t.scanWalk(c, d+1, next, lo, hi, fn); err != nil || !cont {
			return cont, err
		}
	}
	return true, nil
}
