// Package hashmap implements a persistent chained hash table over uint64
// keys, one of the six PMDK data-structure benchmarks (§4.5), with the
// paper's 40-byte chain entries (Table 3).
//
// # Layout
//
// The paper's table is one bucket-array object (10 MB at its scale). Here
// the array is cut into pieces, because a transaction opens — copies and
// verifies — every object it modifies in full (§3.2), and changing one
// 16-byte bucket should not cost the whole array:
//
//	anchor (48 B)   {Table, Old, Cursor, Count}
//	directory       16-byte header (bucket count, reserved) + one OID per segment
//	segment (1008 B) 63 buckets, each the OID of its chain's first entry
//	entry (40 B)    {Next, Key, Value, pad}
//
// Bucket i is slot i%63 of segment i/63. 63 because 63 buckets and the
// 16-byte object header fill a 1,024-byte allocator slot exactly; 64 would
// spill into the next size class and waste nearly half of it. A bucket
// update opens one segment and declares 16 bytes of it (§3.5: logging,
// checksum refresh and parity then cost those 16 bytes).
//
// A segment is allocated by the transaction that first writes one of its
// buckets. Until then its directory slot is nil, which reads as 63 empty
// buckets, so a fresh table of any size is one zeroed directory. A segment
// is freed only by a migration leaving it (below); emptying its buckets by
// removals does not free it. No object grows with the map except the
// directory, at 16 bytes per 63 buckets.
//
// # Growth
//
// The table doubles at load factor 2, and the rehash is incremental: no
// transaction does work in proportion to the table. The transaction whose
// insert crosses the load factor only allocates the new (zeroed) directory
// and records {old directory, migration cursor} in the anchor. From then on
// every InsertTx and RemoveTx first moves migrateStep old buckets into the
// new table inside its own transaction — each moved entry declares only its
// 16-byte Next — freeing an old segment when the cursor leaves it, and the
// transaction that moves the last bucket frees the old directory. Because
// the size doubles, old bucket i splits into new buckets i and i+oldN, so
// while a migration runs every key lives in exactly one place decided by
// the cursor: in the old table when its old bucket is at or beyond the
// cursor, in the new table otherwise. Lookup, LookupTx and Scan follow that
// rule and stay pure reads. A migration takes oldN/migrateStep mutations
// and the next doubling is 2·oldN inserts away, so at most one old table
// ever exists; a growth that nonetheless came due mid-migration would drain
// it first. Crash consistency needs no extra mechanism: each step is part
// of an ordinary transaction.
//
// Attach refuses, with ErrAnchorFormat, anchors of another size (before
// incremental growth they were 24 bytes) and anchors whose table is not a
// directory (before segments it was the bucket array itself).
package hashmap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"unsafe"

	"github.com/pangolin-go/pangolin"
)

const (
	typeAnchor  = 0x68 // 'h'; the pre-segment bucket-array table shared this code
	typeEntry   = 0x65 // 'e'
	typeDir     = 0x64 // 'd'
	typeSegment = 0x73 // 's'
)

// entry is the persistent chain node: 40 bytes (Table 3).
type entry struct {
	Next  pangolin.OID
	Key   uint64
	Value uint64
	_     uint64
}

const (
	dirHeaderSize = 16 // bucket count, reserved word
	oidSize       = 16 // a directory slot and a bucket are each one OID
	segBuckets    = 63
	segSize       = segBuckets * oidSize
)

// anchor is the map's persistent root. Cursor and Count sit side by side so
// the two words a migrating insert writes are one declared range.
type anchor struct {
	Table  pangolin.OID // current directory; the migration target while Old is set
	Old    pangolin.OID // directory being migrated out of, nil when none
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

// ErrAnchorFormat reports an anchor that is not this version's: a map
// written before incremental growth (24-byte anchor) or before segments
// (its table is a bucket array, not a directory), or not a hashmap anchor
// at all. Such a map must be rebuilt; reading it as the current layout
// would follow bucket bytes as segment pointers.
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
		aOID, a, err = pangolin.Alloc[anchor](tx, typeAnchor)
		if err != nil {
			return err
		}
		a.Table, err = allocDir(tx, buckets)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &Map{p: p, anchor: aOID}, nil
}

// allocDir allocates the directory of an empty table: every slot nil.
func allocDir(tx *pangolin.Tx, buckets uint64) (pangolin.OID, error) {
	segs := (buckets + segBuckets - 1) / segBuckets
	oid, data, err := tx.Alloc(dirHeaderSize+segs*oidSize, typeDir)
	if err != nil {
		return pangolin.NilOID, err
	}
	binary.LittleEndian.PutUint64(data[0:], buckets)
	return oid, nil
}

// Attach reconnects to an existing map. It fails with ErrAnchorFormat if
// the anchor is not this version's 48-byte layout over a directory.
func Attach(p *pangolin.Pool, anchorOID pangolin.OID) (*Map, error) {
	size, err := p.ObjectSize(anchorOID)
	if err != nil {
		return nil, err
	}
	if size != anchorSize {
		return nil, fmt.Errorf("%w: anchor is %d bytes, want %d", ErrAnchorFormat, size, anchorSize)
	}
	a, err := pangolin.GetFromPool[anchor](p, anchorOID)
	if err != nil {
		return nil, err
	}
	typ, err := p.ObjectType(a.Table)
	if err != nil {
		return nil, err
	}
	if typ != typeDir {
		return nil, fmt.Errorf("%w: table object has type %#x, want a directory (%#x)", ErrAnchorFormat, typ, typeDir)
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

// nBuckets reads a directory image's bucket count.
func nBuckets(dir []byte) uint64 { return binary.LittleEndian.Uint64(dir[0:]) }

// segOff is segment s's slot offset in a directory's user data.
func segOff(s uint64) uint64 { return dirHeaderSize + s*oidSize }

// oidAt reads the OID at off: a directory slot or a segment's bucket.
func oidAt(image []byte, off uint64) pangolin.OID {
	return pangolin.OID{
		Pool: binary.LittleEndian.Uint64(image[off:]),
		Off:  binary.LittleEndian.Uint64(image[off+8:]),
	}
}

func putOID(image []byte, off uint64, oid pangolin.OID) {
	binary.LittleEndian.PutUint64(image[off:], oid.Pool)
	binary.LittleEndian.PutUint64(image[off+8:], oid.Off)
}

// getFn reads an object: Pool.Get outside a transaction, Tx.Get inside one.
type getFn func(pangolin.OID) ([]byte, error)

// bucket is one located bucket of a table.
type bucket struct {
	dir   pangolin.OID // the table's directory
	n     uint64       // the table's bucket count
	slot  uint64       // offset of the segment's slot in dir
	seg   pangolin.OID // the segment; nil while none of its buckets was ever written
	image []byte       // seg's user data, nil with seg
	off   uint64       // the bucket's offset in image
}

// locate points b at bucket i of the table under dirOID, whose image is
// dir, reading the segment if there is one.
func (b *bucket) locate(get getFn, dirOID pangolin.OID, dir []byte, i uint64) (err error) {
	*b = bucket{dir: dirOID, n: nBuckets(dir), slot: segOff(i / segBuckets), off: i % segBuckets * oidSize}
	if b.seg = oidAt(dir, b.slot); !b.seg.IsNil() {
		b.image, err = get(b.seg)
	}
	return err
}

// head is the first entry of the bucket's chain.
func (b *bucket) head() pangolin.OID {
	if b.image == nil {
		return pangolin.NilOID
	}
	return oidAt(b.image, b.off)
}

// setHead points the bucket at oid, declaring its 16 bytes modified — or,
// when this is the first write to any bucket of the segment, allocating the
// segment and declaring its directory slot.
func (b *bucket) setHead(tx *pangolin.Tx, oid pangolin.OID) error {
	var err error
	if b.seg.IsNil() {
		if b.seg, b.image, err = tx.Alloc(segSize, typeSegment); err != nil {
			return err
		}
		dir, err := tx.AddRange(b.dir, b.slot, oidSize)
		if err != nil {
			return err
		}
		putOID(dir, b.slot, b.seg)
	} else if b.image, err = tx.AddRange(b.seg, b.off, oidSize); err != nil {
		return err
	}
	putOID(b.image, b.off, oid)
	return nil
}

// home points b at the bucket holding k's chain: in the old table while k's
// old bucket has not migrated yet, in the current table otherwise.
func (b *bucket) home(get getFn, a *anchor, k uint64) error {
	h := hash(k)
	if !a.Old.IsNil() {
		old, err := get(a.Old)
		if err != nil {
			return err
		}
		if i := h % nBuckets(old); i >= a.Cursor {
			return b.locate(get, a.Old, old, i)
		}
	}
	dir, err := get(a.Table)
	if err != nil {
		return err
	}
	return b.locate(get, a.Table, dir, h%nBuckets(dir))
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
	var b bucket
	if err := b.home(get, a, k); err != nil {
		return 0, false, err
	}
	for cur := b.head(); !cur.IsNil(); {
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

// LookupTx is Lookup inside the caller's transaction: the directory,
// segment and chain reads come from the transaction's micro-buffers when
// open, so the caller's own uncommitted inserts and removes are visible.
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
// and directory slots are left as they are: nothing reads below the cursor.
// An old segment is freed with its last bucket, the old directory with the
// last bucket of all.
func (m *Map) migrate(tx *pangolin.Tx, a *anchor, limit uint64) error {
	old, err := tx.Get(a.Old)
	if err != nil {
		return err
	}
	oldN := nBuckets(old)
	end := oldN
	if limit < oldN-a.Cursor {
		end = a.Cursor + limit
	}
	var from, to bucket
	for i := a.Cursor; i < end; i++ {
		if err := from.locate(tx.Get, a.Old, old, i); err != nil {
			return err
		}
		for cur := from.head(); !cur.IsNil(); {
			e, err := entryRW(tx, cur, 0, nextSize)
			if err != nil {
				return err
			}
			// Re-read the directory per entry: the first write to one of
			// its segments moves it into a micro-buffer.
			dir, err := tx.Get(a.Table)
			if err != nil {
				return err
			}
			if err := to.locate(tx.Get, a.Table, dir, hash(e.Key)%nBuckets(dir)); err != nil {
				return err
			}
			next := e.Next
			e.Next = to.head()
			if err := to.setHead(tx, cur); err != nil {
				return err
			}
			cur = next
		}
		if last := i%segBuckets == segBuckets-1 || i == oldN-1; last && !from.seg.IsNil() {
			if err := tx.Free(from.seg); err != nil {
				return err
			}
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

// grow starts a migration into a table of twice the buckets: allocate its
// directory, make it current, and leave the rehash to the operations that
// follow.
func (m *Map) grow(tx *pangolin.Tx, a *anchor, buckets uint64) error {
	if !a.Old.IsNil() {
		// Unreachable while migrateStep >= 1 (see the package comment);
		// kept so "one old table at most" does not rest on arithmetic.
		if err := m.migrate(tx, a, ^uint64(0)); err != nil {
			return err
		}
	}
	dir, err := allocDir(tx, buckets)
	if err != nil {
		return err
	}
	if _, err := tx.AddRange(m.anchor, 0, countOff); err != nil {
		return err
	}
	a.Old, a.Table, a.Cursor = a.Table, dir, 0
	return nil
}

// InsertTx adds or updates k inside the caller's transaction.
func (m *Map) InsertTx(tx *pangolin.Tx, k, v uint64) error {
	a, err := m.openAnchor(tx)
	if err != nil {
		return err
	}
	var b bucket
	if err := b.home(tx.Get, a, k); err != nil {
		return err
	}
	for cur := b.head(); !cur.IsNil(); {
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
	// New entry at the chain head; only 16 bytes of one segment and 8 of
	// the anchor are declared modified.
	eOID, e, err := pangolin.Alloc[entry](tx, typeEntry)
	if err != nil {
		return err
	}
	e.Key, e.Value = k, v
	e.Next = b.head()
	if err := b.setHead(tx, eOID); err != nil {
		return err
	}
	if _, err := tx.AddRange(m.anchor, countOff, 8); err != nil {
		return err
	}
	a.Count++
	n := b.n
	if b.dir != a.Table {
		dir, err := tx.Get(a.Table)
		if err != nil {
			return err
		}
		n = nBuckets(dir)
	}
	if a.Count > 2*n {
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
	var b bucket
	if err := b.home(tx.Get, a, k); err != nil {
		return false, err
	}
	prev := pangolin.NilOID
	for cur := b.head(); !cur.IsNil(); {
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
			if err := b.setHead(tx, next); err != nil {
				return false, err
			}
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

// scanTable visits the chains of a table's buckets from index from on,
// segment by segment — one read per segment that exists, none for the
// buckets of one that does not — reporting false once fn asked to stop.
func (m *Map) scanTable(dirOID pangolin.OID, from, lo, hi uint64, fn func(k, v uint64) bool) (more bool, err error) {
	dir, err := m.p.Get(dirOID)
	if err != nil {
		return false, err
	}
	// The last segment's slots past the bucket count are never written.
	for s, off := from/segBuckets, from%segBuckets*oidSize; segOff(s) < uint64(len(dir)); s, off = s+1, 0 {
		seg := oidAt(dir, segOff(s))
		if seg.IsNil() {
			continue
		}
		buckets, err := m.p.Get(seg)
		if err != nil {
			return false, err
		}
		for ; off < segSize; off += oidSize {
			for cur := oidAt(buckets, off); !cur.IsNil(); {
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
	}
	return true, nil
}
