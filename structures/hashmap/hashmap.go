// Package hashmap implements a persistent chained hash table over uint64
// keys, one of the six PMDK data-structure benchmarks (§4.5). It has two
// object kinds, like the paper's hashmap (Table 3): a large bucket-array
// table object (10 MB at paper scale; smaller here and grown by
// rehashing) and 40-byte chain entries.
//
// Bucket-pointer updates modify 16 bytes of the multi-kilobyte table
// object via AddRange — the workload where Pangolin's incremental
// checksums and range-limited logging matter most (§3.5).
//
// # Growth
//
// The table doubles at load factor 2, and the rehash is incremental: no
// transaction does work in proportion to the table. The transaction whose
// insert crosses the load factor only allocates the new (zeroed) table and
// records {old table, migration cursor} in the anchor. From then on every
// InsertTx and RemoveTx first moves migrateStep old buckets into the new
// table inside its own transaction — each moved entry declares only its
// 16-byte Next — and the transaction that moves the last bucket frees the
// old table. Because the size doubles, old bucket i splits into new
// buckets i and i+oldN, so while a migration runs every key lives in
// exactly one place decided by the cursor: in the old table when its old
// bucket is at or beyond the cursor, in the new table otherwise. Lookup,
// LookupTx and Scan follow that rule and stay pure reads. A migration
// takes oldN/migrateStep mutations and the next doubling is 2·oldN inserts
// away, so at most one old table ever exists; a growth that nonetheless
// came due mid-migration would drain it first. Crash consistency needs no
// extra mechanism: each step is part of an ordinary transaction.
//
// The anchor is 48 bytes: {Table, Count, Old, Cursor}. Anchors written
// before incremental growth were 24 bytes ({Table, Count}); Attach refuses
// them with ErrAnchorFormat rather than guess at fields that are not
// there.
package hashmap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"unsafe"

	"github.com/pangolin-go/pangolin"
)

const (
	typeTable = 0x68 // 'h'
	typeEntry = 0x65 // 'e'
)

// entry is the persistent chain node: 40 bytes (Table 3).
type entry struct {
	Next  pangolin.OID
	Key   uint64
	Value uint64
	_     uint64
}

// The table object is a 16-byte header (bucket count, reserved word)
// followed by the bucket array, one OID per bucket.
const (
	tableHeaderSize = 16
	bucketSize      = 16
)

// anchor is the map's persistent root. Cursor and Count sit side by side so
// the two words a migrating insert writes are one declared range.
type anchor struct {
	Table  pangolin.OID // current table; the migration target while Old is set
	Old    pangolin.OID // table being migrated out of, nil when none
	Cursor uint64       // old buckets below this index have moved to Table
	Count  uint64
}

// Declared-range offsets: operations mark only the fields they write.
const (
	anchorSize = uint64(unsafe.Sizeof(anchor{}))
	oldOff     = uint64(unsafe.Offsetof(anchor{}.Old))
	cursorOff  = uint64(unsafe.Offsetof(anchor{}.Cursor))
	countOff   = uint64(unsafe.Offsetof(anchor{}.Count))
	nextSize   = uint64(unsafe.Sizeof(entry{}.Next)) // Next is the entry's first field
	valueOff   = uint64(unsafe.Offsetof(entry{}.Value))
)

// migrateStep is how many old buckets each InsertTx/RemoveTx moves while a
// migration runs. At 2 a migration is over a quarter of the way to the
// next doubling.
const migrateStep = 2

// ErrAnchorFormat reports an anchor whose size is not this version's: a
// map written before incremental growth (24-byte anchor) or not a hashmap
// anchor at all. Such a map must be rebuilt; reading it as the current
// layout would invent a migration state.
var ErrAnchorFormat = errors.New("hashmap: unsupported anchor format")

// Map is a handle to a persistent hash map.
type Map struct {
	p      *pangolin.Pool
	anchor pangolin.OID
}

// InitialBuckets is the bucket count of a fresh table. The paper's table
// object is 10 MB; the default here is laptop-scale and grows by
// rehashing at load factor 2.
const InitialBuckets = 1024

// New allocates a fresh map with InitialBuckets buckets.
func New(p *pangolin.Pool) (*Map, error) { return NewWithBuckets(p, InitialBuckets) }

// NewWithBuckets allocates a fresh map with a chosen initial bucket count
// (benchmarks pre-size the table the way the paper's 10 MB table does, so
// the insert path is not dominated by rehashing).
func NewWithBuckets(p *pangolin.Pool, buckets uint64) (*Map, error) {
	var aOID pangolin.OID
	err := p.Run(func(tx *pangolin.Tx) error {
		var err error
		var a *anchor
		aOID, a, err = pangolin.Alloc[anchor](tx, typeTable)
		if err != nil {
			return err
		}
		tOID, err := allocTable(tx, buckets)
		if err != nil {
			return err
		}
		a.Table = tOID
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Map{p: p, anchor: aOID}, nil
}

func allocTable(tx *pangolin.Tx, buckets uint64) (pangolin.OID, error) {
	size := tableHeaderSize + buckets*bucketSize
	oid, data, err := tx.Alloc(size, typeTable)
	if err != nil {
		return pangolin.NilOID, err
	}
	binary.LittleEndian.PutUint64(data[0:], buckets)
	return oid, nil
}

// Attach reconnects to an existing map. It fails with ErrAnchorFormat if
// the anchor is not this version's 48-byte layout.
func Attach(p *pangolin.Pool, anchorOID pangolin.OID) (*Map, error) {
	size, err := p.ObjectSize(anchorOID)
	if err != nil {
		return nil, err
	}
	if size != anchorSize {
		return nil, fmt.Errorf("%w: anchor is %d bytes, want %d", ErrAnchorFormat, size, anchorSize)
	}
	return &Map{p: p, anchor: anchorOID}, nil
}

// Anchor returns the map's persistent anchor OID.
func (m *Map) Anchor() pangolin.OID { return m.anchor }

// Len returns the number of keys.
func (m *Map) Len() (uint64, error) {
	a, err := pangolin.GetFromPool[anchor](m.p, m.anchor)
	if err != nil {
		return 0, err
	}
	return a.Count, nil
}

// hash is Fibonacci hashing over the key.
func hash(k uint64) uint64 { return k * 0x9E3779B97F4A7C15 }

// nBuckets reads a table image's bucket count.
func nBuckets(table []byte) uint64 { return binary.LittleEndian.Uint64(table[0:]) }

// bucketOff is bucket i's offset in the table's user data.
func bucketOff(i uint64) uint64 { return tableHeaderSize + i*bucketSize }

// bucketOID reads bucket i of a table image.
func bucketOID(table []byte, i uint64) pangolin.OID {
	off := bucketOff(i)
	return pangolin.OID{
		Pool: binary.LittleEndian.Uint64(table[off:]),
		Off:  binary.LittleEndian.Uint64(table[off+8:]),
	}
}

func putBucketOID(table []byte, i uint64, oid pangolin.OID) {
	off := bucketOff(i)
	binary.LittleEndian.PutUint64(table[off:], oid.Pool)
	binary.LittleEndian.PutUint64(table[off+8:], oid.Off)
}

// getFn reads an object: Pool.Get outside a transaction, Tx.Get inside one.
type getFn func(pangolin.OID) ([]byte, error)

// home returns the table and bucket holding k's chain: the old table while
// k's old bucket has not migrated yet, the current table otherwise.
func home(get getFn, a *anchor, k uint64) (oid pangolin.OID, table []byte, idx uint64, err error) {
	h := hash(k)
	if !a.Old.IsNil() {
		old, err := get(a.Old)
		if err != nil {
			return pangolin.NilOID, nil, 0, err
		}
		if i := h % nBuckets(old); i >= a.Cursor {
			return a.Old, old, i, nil
		}
	}
	table, err = get(a.Table)
	if err != nil {
		return pangolin.NilOID, nil, 0, err
	}
	return a.Table, table, h % nBuckets(table), nil
}

// lookup walks k's chain with get.
func (m *Map) lookup(get getFn, k uint64) (uint64, bool, error) {
	data, err := get(m.anchor)
	if err != nil {
		return 0, false, err
	}
	a, err := pangolin.View[anchor](data)
	if err != nil {
		return 0, false, err
	}
	_, table, idx, err := home(get, a, k)
	if err != nil {
		return 0, false, err
	}
	for cur := bucketOID(table, idx); !cur.IsNil(); {
		data, err := get(cur)
		if err != nil {
			return 0, false, err
		}
		e, err := pangolin.View[entry](data)
		if err != nil {
			return 0, false, err
		}
		if e.Key == k {
			return e.Value, true, nil
		}
		cur = e.Next
	}
	return 0, false, nil
}

// Lookup finds k with direct reads. It is a pure read (no pool writes,
// no handle state), honoring the kv.Map concurrent-read contract: on a
// ReadView instance it may run concurrently with other Lookups, gated
// against commits by the caller.
func (m *Map) Lookup(k uint64) (uint64, bool, error) { return m.lookup(m.p.Get, k) }

// LookupTx is Lookup inside the caller's transaction: the table and chain
// reads come from the transaction's micro-buffers when open, so the
// caller's own uncommitted inserts and removes are visible.
func (m *Map) LookupTx(tx *pangolin.Tx, k uint64) (uint64, bool, error) {
	return m.lookup(tx.Get, k)
}

// Insert adds or updates k in one transaction, growing the table at load
// factor 2.
func (m *Map) Insert(k, v uint64) error {
	return m.p.Run(func(tx *pangolin.Tx) error { return m.InsertTx(tx, k, v) })
}

// entryRW declares bytes [off, off+n) of an entry modified and returns its
// writable view.
func entryRW(tx *pangolin.Tx, oid pangolin.OID, off, n uint64) (*entry, error) {
	data, err := tx.AddRange(oid, off, n)
	if err != nil {
		return nil, err
	}
	return pangolin.View[entry](data)
}

// openAnchor opens the anchor for writing (verified, nothing declared yet)
// and advances a running migration by one step. Writers then declare the
// fields they change with tx.AddRange(m.anchor, …).
func (m *Map) openAnchor(tx *pangolin.Tx) (*anchor, error) {
	data, err := tx.Open(m.anchor)
	if err != nil {
		return nil, err
	}
	a, err := pangolin.View[anchor](data)
	if err != nil {
		return nil, err
	}
	if !a.Old.IsNil() {
		if err := m.migrate(tx, a, migrateStep); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// migrate moves up to limit old buckets, from the cursor on, into the
// current table. Old bucket i splits into new buckets i and i+oldN, both
// empty until now, so each entry is pushed onto its new chain by rewriting
// its Next and the bucket head — the only bytes declared. The old buckets
// are left as they are: nothing reads below the cursor. Moving the last
// bucket frees the old table.
func (m *Map) migrate(tx *pangolin.Tx, a *anchor, limit uint64) error {
	old, err := tx.Get(a.Old)
	if err != nil {
		return err
	}
	table, err := tx.Get(a.Table)
	if err != nil {
		return err
	}
	oldN, n := nBuckets(old), nBuckets(table)
	end := oldN
	if limit < oldN-a.Cursor {
		end = a.Cursor + limit
	}
	for i := a.Cursor; i < end; i++ {
		for cur := bucketOID(old, i); !cur.IsNil(); {
			e, err := entryRW(tx, cur, 0, nextSize)
			if err != nil {
				return err
			}
			next := e.Next
			idx := hash(e.Key) % n
			wTable, err := tx.AddRange(a.Table, bucketOff(idx), bucketSize)
			if err != nil {
				return err
			}
			e.Next = bucketOID(wTable, idx)
			putBucketOID(wTable, idx, cur)
			cur = next
		}
	}
	if end < oldN {
		if _, err := tx.AddRange(m.anchor, cursorOff, 8); err != nil {
			return err
		}
		a.Cursor = end
		return nil
	}
	if _, err := tx.AddRange(m.anchor, oldOff, countOff-oldOff); err != nil {
		return err
	}
	done := a.Old
	a.Old, a.Cursor = pangolin.NilOID, 0
	return tx.Free(done)
}

// grow starts a migration into a table of twice the buckets: allocate it,
// make it current, and leave the rehash to the operations that follow.
func (m *Map) grow(tx *pangolin.Tx, a *anchor, buckets uint64) error {
	if !a.Old.IsNil() {
		// Unreachable while migrateStep >= 1 (see the package comment);
		// kept so "one old table at most" does not rest on arithmetic.
		if err := m.migrate(tx, a, ^uint64(0)); err != nil {
			return err
		}
	}
	table, err := allocTable(tx, buckets)
	if err != nil {
		return err
	}
	if _, err := tx.AddRange(m.anchor, 0, countOff); err != nil {
		return err
	}
	a.Old, a.Table, a.Cursor = a.Table, table, 0
	return nil
}

// InsertTx adds or updates k inside the caller's transaction.
func (m *Map) InsertTx(tx *pangolin.Tx, k, v uint64) error {
	a, err := m.openAnchor(tx)
	if err != nil {
		return err
	}
	tOID, table, idx, err := home(tx.Get, a, k)
	if err != nil {
		return err
	}
	for cur := bucketOID(table, idx); !cur.IsNil(); {
		e, err := pangolin.Get[entry](tx, cur)
		if err != nil {
			return err
		}
		if e.Key == k {
			we, err := entryRW(tx, cur, valueOff, 8)
			if err != nil {
				return err
			}
			we.Value = v
			return nil
		}
		cur = e.Next
	}
	// New entry at the chain head; only 16 bytes of the table object and
	// 8 of the anchor are declared modified.
	eOID, e, err := pangolin.Alloc[entry](tx, typeEntry)
	if err != nil {
		return err
	}
	e.Key, e.Value = k, v
	e.Next = bucketOID(table, idx)
	wTable, err := tx.AddRange(tOID, bucketOff(idx), bucketSize)
	if err != nil {
		return err
	}
	putBucketOID(wTable, idx, eOID)
	if _, err := tx.AddRange(m.anchor, countOff, 8); err != nil {
		return err
	}
	a.Count++
	if tOID != a.Table {
		if table, err = tx.Get(a.Table); err != nil {
			return err
		}
	}
	if n := nBuckets(table); a.Count > 2*n {
		return m.grow(tx, a, 2*n)
	}
	return nil
}

// Remove deletes k, reporting whether it was present.
func (m *Map) Remove(k uint64) (bool, error) {
	found := false
	err := m.p.Run(func(tx *pangolin.Tx) error {
		var err error
		found, err = m.RemoveTx(tx, k)
		return err
	})
	return found, err
}

// RemoveTx deletes k inside the caller's transaction.
func (m *Map) RemoveTx(tx *pangolin.Tx, k uint64) (bool, error) {
	a, err := m.openAnchor(tx)
	if err != nil {
		return false, err
	}
	tOID, table, idx, err := home(tx.Get, a, k)
	if err != nil {
		return false, err
	}
	prev := pangolin.NilOID
	for cur := bucketOID(table, idx); !cur.IsNil(); {
		e, err := pangolin.Get[entry](tx, cur)
		if err != nil {
			return false, err
		}
		if e.Key != k {
			prev, cur = cur, e.Next
			continue
		}
		next := e.Next
		if prev.IsNil() {
			wTable, err := tx.AddRange(tOID, bucketOff(idx), bucketSize)
			if err != nil {
				return false, err
			}
			putBucketOID(wTable, idx, next)
		} else {
			wp, err := entryRW(tx, prev, 0, nextSize)
			if err != nil {
				return false, err
			}
			wp.Next = next
		}
		if _, err := tx.AddRange(m.anchor, countOff, 8); err != nil {
			return false, err
		}
		a.Count--
		return true, tx.Free(cur)
	}
	return false, nil
}

// Range calls fn for every key/value pair in unspecified order, stopping
// early if fn returns false. Reads are direct (pgl_get); do not mutate
// the map during iteration.
func (m *Map) Range(fn func(k, v uint64) bool) error {
	return m.Scan(0, ^uint64(0), fn)
}

// Scan calls fn for every pair with lo <= k <= hi in unspecified order
// (hash order gives no cheaper option than enumerating every chain and
// filtering), stopping early if fn returns false. It is complete: every
// in-range pair is visited unless fn stops early — during a migration
// that is every chain of the current table plus the old table's chains
// from the cursor on, which hold each key exactly once between them. It
// follows the kv.Map iteration contract: a mid-scan read fault aborts the
// walk and returns its error.
func (m *Map) Scan(lo, hi uint64, fn func(k, v uint64) bool) error {
	if lo > hi {
		return nil
	}
	a, err := pangolin.GetFromPool[anchor](m.p, m.anchor)
	if err != nil {
		return err
	}
	more, err := m.scanTable(a.Table, 0, lo, hi, fn)
	if err != nil || !more || a.Old.IsNil() {
		return err
	}
	_, err = m.scanTable(a.Old, a.Cursor, lo, hi, fn)
	return err
}

// scanTable visits the chains of table's buckets from index from on,
// reporting false once fn asked to stop.
func (m *Map) scanTable(table pangolin.OID, from, lo, hi uint64, fn func(k, v uint64) bool) (more bool, err error) {
	buckets, err := m.p.Get(table)
	if err != nil {
		return false, err
	}
	for i, n := from, nBuckets(buckets); i < n; i++ {
		for cur := bucketOID(buckets, i); !cur.IsNil(); {
			e, err := pangolin.GetFromPool[entry](m.p, cur)
			if err != nil {
				return false, err
			}
			if e.Key >= lo && e.Key <= hi && !fn(e.Key, e.Value) {
				return false, nil
			}
			cur = e.Next
		}
	}
	return true, nil
}
