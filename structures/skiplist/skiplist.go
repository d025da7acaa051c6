// Package skiplist implements a persistent skip list over uint64 keys,
// one of the six PMDK data-structure benchmarks (§4.5). Nodes are
// 408-byte Pangolin objects (Table 3): a 24-level forward-pointer array
// plus key, value, and level.
//
// Tower heights are drawn from a deterministic pseudo-random sequence
// held in volatile memory; heights are a performance concern only, so
// they need no persistence.
package skiplist

import (
	"math/rand"

	"github.com/pangolin-go/pangolin"
)

const typeNode = 0x73 // 's'

// maxLevel gives the paper's 408-byte node: 24 OIDs + key/value/level.
const maxLevel = 24

// node is the persistent layout: 24*16 + 3*8 = 408 bytes.
type node struct {
	Next  [maxLevel]pangolin.OID
	Key   uint64
	Value uint64
	Level uint64 // tower height (1..maxLevel)
}

type anchor struct {
	Head  pangolin.OID // sentinel node, full height
	Count uint64
}

// List is a handle to a persistent skip list.
type List struct {
	p      *pangolin.Pool
	anchor pangolin.OID
	rng    *rand.Rand
}

// New allocates a fresh list.
func New(p *pangolin.Pool) (*List, error) {
	var aOID pangolin.OID
	err := p.Run(func(tx *pangolin.Tx) error {
		var err error
		var a *anchor
		aOID, a, err = pangolin.Alloc[anchor](tx, typeNode)
		if err != nil {
			return err
		}
		hOID, h, err := pangolin.Alloc[node](tx, typeNode)
		if err != nil {
			return err
		}
		h.Level = maxLevel
		a.Head = hOID
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &List{p: p, anchor: aOID, rng: rand.New(rand.NewSource(42))}, nil
}

// Attach reconnects to an existing list.
func Attach(p *pangolin.Pool, anchorOID pangolin.OID) (*List, error) {
	if _, err := p.ObjectSize(anchorOID); err != nil {
		return nil, err
	}
	return &List{p: p, anchor: anchorOID, rng: rand.New(rand.NewSource(43))}, nil
}

// Anchor returns the list's persistent anchor OID.
func (l *List) Anchor() pangolin.OID { return l.anchor }

// Len returns the number of keys.
func (l *List) Len() (uint64, error) {
	a, err := pangolin.GetFromPool[anchor](l.p, l.anchor)
	if err != nil {
		return 0, err
	}
	return a.Count, nil
}

// randLevel draws a tower height with P(level ≥ i+1) = 1/2^i.
func (l *List) randLevel() uint64 {
	lv := uint64(1)
	for lv < maxLevel && l.rng.Intn(2) == 0 {
		lv++
	}
	return lv
}

// seek descends the tower pointers, reading through get, to the last node
// (possibly the head sentinel) whose key is strictly below k at every
// level: update[lv] is that node at level lv, and pred, the one at level
// 0, has pred.Next[0] the first node with key >= k. Pure reads (the
// concurrent-read contract); Lookup, LookupTx, Scan, InsertTx and
// RemoveTx all descend here.
func seek(get pangolin.Getter, head pangolin.OID, k uint64) (pred *node, update [maxLevel]pangolin.OID, err error) {
	curOID := head
	cur, err := pangolin.Read[node](get, head)
	if err != nil {
		return nil, update, err
	}
	for lv := maxLevel - 1; lv >= 0; lv-- {
		for !cur.Next[lv].IsNil() {
			nxt, err := pangolin.Read[node](get, cur.Next[lv])
			if err != nil {
				return nil, update, err
			}
			if nxt.Key >= k {
				break
			}
			curOID, cur = cur.Next[lv], nxt
		}
		update[lv] = curOID
	}
	return cur, update, nil
}

// Lookup finds k with direct reads. It is a pure read (no pool writes,
// no handle state), honoring the kv.Map concurrent-read contract: on a
// ReadView instance it may run concurrently with other Lookups, gated
// against commits by the caller.
func (l *List) Lookup(k uint64) (uint64, bool, error) { return l.lookup(l.p.Get, k) }

// LookupTx is Lookup inside the caller's transaction, observing the
// transaction's own uncommitted writes.
func (l *List) LookupTx(tx *pangolin.Tx, k uint64) (uint64, bool, error) {
	return l.lookup(tx.Get, k)
}

// lookup finds k, reading each node through get.
func (l *List) lookup(get pangolin.Getter, k uint64) (uint64, bool, error) {
	a, err := pangolin.Read[anchor](get, l.anchor)
	if err != nil {
		return 0, false, err
	}
	pred, _, err := seek(get, a.Head, k)
	if err != nil || pred.Next[0].IsNil() {
		return 0, false, err
	}
	cand, err := pangolin.Read[node](get, pred.Next[0])
	if err != nil || cand.Key != k {
		return 0, false, err
	}
	return cand.Value, true, nil
}

// Insert adds or updates k in one transaction.
func (l *List) Insert(k, v uint64) error {
	return l.p.Run(func(tx *pangolin.Tx) error { return l.InsertTx(tx, k, v) })
}

// InsertTx adds or updates k inside the caller's transaction.
func (l *List) InsertTx(tx *pangolin.Tx, k, v uint64) error {
	level := l.randLevel()
	a, err := pangolin.Open[anchor](tx, l.anchor)
	if err != nil {
		return err
	}
	pred0, update, err := seek(tx.Get, a.Head, k)
	if err != nil {
		return err
	}
	if !pred0.Next[0].IsNil() {
		cand, err := pangolin.Get[node](tx, pred0.Next[0])
		if err != nil {
			return err
		}
		if cand.Key == k {
			// Declare only the 8-byte value field modified.
			data, err := tx.AddRange(pred0.Next[0], offValue, 8)
			if err != nil {
				return err
			}
			wn, err := pangolin.View[node](data)
			if err != nil {
				return err
			}
			wn.Value = v
			return nil
		}
	}
	nOID, n, err := pangolin.Alloc[node](tx, typeNode)
	if err != nil {
		return err
	}
	n.Key, n.Value, n.Level = k, v, level
	for lv := uint64(0); lv < level; lv++ {
		// Declare only the touched forward pointer (16 bytes per
		// level) — skiplist transactions modify a handful of
		// pointers of 408-byte nodes (Table 3).
		data, err := tx.AddRange(update[lv], lv*16, 16)
		if err != nil {
			return err
		}
		pred, err := pangolin.View[node](data)
		if err != nil {
			return err
		}
		n.Next[lv] = pred.Next[lv]
		pred.Next[lv] = nOID
	}
	a.Count++
	return nil
}

// Field offsets within the node's user data (for ranged updates).
const (
	offValue = 24*16 + 8 // Value follows Next[24] and Key
)

// Remove deletes k, reporting whether it was present.
func (l *List) Remove(k uint64) (bool, error) {
	found := false
	err := l.p.Run(func(tx *pangolin.Tx) error {
		var err error
		found, err = l.RemoveTx(tx, k)
		return err
	})
	return found, err
}

// RemoveTx deletes k inside the caller's transaction, reporting whether it
// was present.
func (l *List) RemoveTx(tx *pangolin.Tx, k uint64) (bool, error) {
	a, err := pangolin.Open[anchor](tx, l.anchor)
	if err != nil {
		return false, err
	}
	pred0, update, err := seek(tx.Get, a.Head, k)
	if err != nil {
		return false, err
	}
	victim := pred0.Next[0]
	if victim.IsNil() {
		return false, nil
	}
	vn, err := pangolin.Get[node](tx, victim)
	if err != nil {
		return false, err
	}
	if vn.Key != k {
		return false, nil
	}
	for lv := uint64(0); lv < vn.Level; lv++ {
		predR, err := pangolin.Get[node](tx, update[lv])
		if err != nil {
			return false, err
		}
		if predR.Next[lv] != victim {
			continue
		}
		data, err := tx.AddRange(update[lv], lv*16, 16)
		if err != nil {
			return false, err
		}
		pred, err := pangolin.View[node](data)
		if err != nil {
			return false, err
		}
		pred.Next[lv] = vn.Next[lv]
	}
	a.Count--
	return true, tx.Free(victim)
}

// Range calls fn for every key/value pair in ascending key order (the
// level-0 chain), stopping early if fn returns false. Reads are direct
// (pgl_get); do not mutate the list during iteration.
func (l *List) Range(fn func(k, v uint64) bool) error {
	return l.Scan(0, ^uint64(0), fn)
}

// Scan calls fn for every pair with lo <= k <= hi in ascending key
// order, stopping early if fn returns false. The tower pointers locate
// the first key >= lo without touching the chain below it, then the
// level-0 chain is followed until a key exceeds hi. It follows the
// kv.Map iteration contract: a mid-scan read fault aborts the walk and
// returns its error.
func (l *List) Scan(lo, hi uint64, fn func(k, v uint64) bool) error {
	if lo > hi {
		return nil
	}
	a, err := pangolin.GetFromPool[anchor](l.p, l.anchor)
	if err != nil {
		return err
	}
	pred, _, err := seek(l.p.Get, a.Head, lo)
	if err != nil {
		return err
	}
	oid := pred.Next[0]
	for !oid.IsNil() {
		n, err := pangolin.GetFromPool[node](l.p, oid)
		if err != nil {
			return err
		}
		if n.Key > hi {
			return nil
		}
		if !fn(n.Key, n.Value) {
			return nil
		}
		oid = n.Next[0]
	}
	return nil
}
