// Package hashmap implements a persistent hash table over uint64 keys, one
// of the six PMDK data-structure benchmarks (§4.5), with its pairs inline
// in the table's segments.
//
// # Layout
//
//	anchor (48 B)     {Table, Old, Cursor, Count}
//	directory         16-byte header (segment count, reserved) + one OID per segment
//	segment (1008 B)  32-byte header {occupancy bitmap, its complement, overflow OID}
//	                  + 61 inline slots of {Key, Value}
//
// The paper's table is one 10 MB object; here it is cut into 1 KB segments,
// because a transaction opens — copies and verifies — every object it
// modifies in full (§3.2). Key k, with h = hash(k), belongs to segment
// h % S and probes from home slot (h>>32) % 61 there, so keys sharing a
// segment still spread over its slots. 61 because 61 pairs and both headers
// fill a 1,024-byte allocator slot exactly and one word maps them; 62 would
// spill into the next size class. A segment is allocated by the first
// transaction that writes it; until then its directory slot is nil and
// reads as empty. The bitmap's complement is a check word: a read that
// skips checksum verification, because the segment was verified since its
// last modification (§3.3), still refuses a segment whose words disagree,
// so a bitmap scribbled after that verification fails as typed corruption
// instead of reviving the stale pairs removals and migrations leave in
// free slots.
//
// This departs from the paper's 40-byte chain entries (Table 3): each cost
// a 64-byte allocator slot and header, pgl_alloc and its log records on
// insert, and a third object read on lookup. Fig 5's and Table 3's hashmap
// rows measure the inline layout.
//
// # Probing, overflow and deletion
//
// A lookup probes linearly from the home slot, wrapping, up to the first
// empty slot or a full wrap, and on a miss follows the overflow link to a
// further segment. An insert checks the whole chain for k and, if there,
// rewrites its Value; otherwise it fills the first free slot, in probe
// order, of the first segment with room — declaring that slot, the bitmap
// words and Count — and only when the whole chain is full does it link a
// new overflow segment, which colliding hashes need and the load factor
// otherwise keeps rare. A remove backward-shifts within its segment
// (Knuth's Algorithm R): each later pair of the probe run whose home does
// not lie strictly between the hole and itself moves into the hole, so
// every pair stays reachable from its home without tombstones.
//
// # Growth
//
// When Count exceeds ¾ of the table's S·61 slots, the inserting transaction
// only allocates a nil directory of 2S segments and records {old directory,
// cursor 0} in the anchor. Every later InsertTx and RemoveTx first migrates
// the old chain at the cursor: its pairs are rehashed into new segments s
// and s+S — nil until then, since no other key maps to them — written as
// fresh objects, and the old chain is freed, the old directory with the
// last one. A key lives in the old table iff h % S_old >= Cursor; Lookup,
// LookupTx and Scan follow that rule and stay pure reads. A migration takes
// S_old mutations and the next doubling is about 46·S_old inserts away, so
// at most one old table exists. Each step is an ordinary transaction.
//
// Attach refuses, with ErrAnchorFormat, anchors of another size (24 bytes
// before incremental growth), tables that are not a directory (a bucket
// array before segments) and directories of the chained layout, whose
// header counts buckets and whose segments (type 0x73) hold chain heads.
package hashmap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"unsafe"

	"github.com/pangolin-go/pangolin"
)

const (
	typeAnchor       = 0x68 // 'h'; the pre-segment bucket-array table shared this code
	typeDir          = 0x64 // 'd'
	typeSegment      = 0x69 // 'i': inline pairs
	typeChainSegment = 0x73 // 's': the chained layout's segment of chain heads
)

const (
	dirHeaderSize = 16 // segment count, reserved word
	oidSize       = 16 // a directory slot and an overflow link are each one OID
	segHeaderSize = 32 // occupancy bitmap, its complement, overflow OID
	occSize       = 16 // the bitmap and its complement
	ovfOff        = 16 // the overflow link's offset in a segment
	pairSize      = 16 // {Key, Value}
	segSlots      = 61
	segSize       = segHeaderSize + segSlots*pairSize
	slotMask      = 1<<segSlots - 1
)

// The table grows when Count exceeds growNum/growDen of its slots.
const growNum, growDen = 3, 4

// anchor is the map's persistent root. Cursor and Count sit side by side so
// the two words a migrating insert writes are one declared range.
type anchor struct {
	Table  pangolin.OID // current directory; the migration target while Old is set
	Old    pangolin.OID // directory being migrated out of, nil when none
	Cursor uint64       // old segments below this index have moved to Table
	Count  uint64
}

const ( // declared-range offsets: operations mark only the fields they write
	anchorSize = uint64(unsafe.Sizeof(anchor{}))
	oldOff     = uint64(unsafe.Offsetof(anchor{}.Old))
	cursorOff  = uint64(unsafe.Offsetof(anchor{}.Cursor))
	countOff   = uint64(unsafe.Offsetof(anchor{}.Count))
)

// ErrAnchorFormat reports an anchor that is not this version's — a map
// written before incremental growth, before segments or before inline
// pairs, or not a hashmap at all. Such a map must be rebuilt.
var ErrAnchorFormat = errors.New("hashmap: unsupported anchor format")

// Map is a handle to a persistent hash map.
type Map struct {
	p      *pangolin.Pool
	anchor pangolin.OID
}

// InitialBuckets is the slot count of a fresh table (17 segments): the
// paper's table is 10 MB, this one is laptop-scale and grows by doubling.
const InitialBuckets = 1024

// New allocates a fresh map sized for InitialBuckets slots.
func New(p *pangolin.Pool) (*Map, error) { return NewWithBuckets(p, InitialBuckets) }

// NewWithBuckets allocates a fresh map of ⌈buckets/61⌉ segments: at least
// buckets slots (benchmarks pre-size it, as the paper does its table).
func NewWithBuckets(p *pangolin.Pool, buckets uint64) (*Map, error) {
	var aOID pangolin.OID
	err := p.Run(func(tx *pangolin.Tx) error {
		var err error
		var a *anchor
		aOID, a, err = pangolin.Alloc[anchor](tx, typeAnchor)
		if err != nil {
			return err
		}
		a.Table, err = allocDir(tx, max(1, (buckets+segSlots-1)/segSlots))
		return err
	})
	if err != nil {
		return nil, err
	}
	return &Map{p: p, anchor: aOID}, nil
}

// allocDir allocates the directory of an empty table: every slot nil.
func allocDir(tx *pangolin.Tx, segs uint64) (pangolin.OID, error) {
	oid, data, err := tx.Alloc(segOff(segs), typeDir)
	if err != nil {
		return pangolin.NilOID, err
	}
	binary.LittleEndian.PutUint64(data[0:], segs)
	return oid, nil
}

// Attach reconnects to an existing map, or fails with ErrAnchorFormat if
// the anchor is not this version's layout (see the package comment).
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
	// The current table decides: an old one is only ever this layout's.
	typ, err := p.ObjectType(a.Table)
	if err != nil {
		return nil, err
	}
	if typ != typeDir {
		return nil, fmt.Errorf("%w: table object has type %#x, want a directory (%#x)", ErrAnchorFormat, typ, typeDir)
	}
	t, err := readTable(p.Get, a.Table)
	if err != nil {
		return nil, fmt.Errorf("%w: directory header does not count its segments (%v)", ErrAnchorFormat, err)
	}
	for s := uint64(0); s < t.n && err == nil; s++ { // the first written segment's type
		if seg := oidAt(t.dir, segOff(s)); !seg.IsNil() {
			if typ, err = p.ObjectType(seg); err == nil && typ != typeSegment {
				err = fmt.Errorf("%w: segment has type %#x, want %#x", ErrAnchorFormat, typ, typeSegment)
			}
			break
		}
	}
	if err != nil {
		return nil, err
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

// homeSlot is the slot a key with hash h probes from.
func homeSlot(h uint64) uint64 { return (h >> 32) % segSlots }

// segOff is segment s's slot offset in a directory's user data.
func segOff(s uint64) uint64 { return dirHeaderSize + s*oidSize }

// slotOff is inline slot i's offset in a segment's user data.
func slotOff(i uint64) uint64 { return segHeaderSize + i*pairSize }

// oidAt reads the OID at off: a directory slot or an overflow link.
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

// setOID points the OID at off of an object (a directory slot or an
// overflow link) at oid, declaring its 16 bytes.
func setOID(tx *pangolin.Tx, obj pangolin.OID, off uint64, oid pangolin.OID) error {
	image, err := tx.AddRange(obj, off, oidSize)
	if err == nil {
		putOID(image, off, oid)
	}
	return err
}

// occupied is a segment's bitmap.
func occupied(seg []byte) uint64 { return binary.LittleEndian.Uint64(seg) }

// setOccupied writes a segment's bitmap and its check word.
func setOccupied(seg []byte, occ uint64) {
	binary.LittleEndian.PutUint64(seg, occ)
	binary.LittleEndian.PutUint64(seg[8:], ^occ)
}

func keyAt(seg []byte, i uint64) uint64 { return binary.LittleEndian.Uint64(seg[slotOff(i):]) }
func valAt(seg []byte, i uint64) uint64 { return binary.LittleEndian.Uint64(seg[slotOff(i)+8:]) }

// pair is one slot's contents.
type pair struct{ k, v uint64 }

// put writes p into slot i of a segment image and marks the slot occupied.
func put(seg []byte, i uint64, p pair) {
	binary.LittleEndian.PutUint64(seg[slotOff(i):], p.k)
	binary.LittleEndian.PutUint64(seg[slotOff(i)+8:], p.v)
	setOccupied(seg, occupied(seg)|1<<i)
}

// probe looks for k in a segment image from home on. It returns k's slot
// and true; or the first free slot in probe order and false; or segSlots
// and false when the segment is full and does not hold k.
func probe(seg []byte, k, home uint64) (uint64, bool) {
	occ := occupied(seg)
	for i, n := home, 0; n < segSlots; n++ {
		if occ&(1<<i) == 0 {
			return i, false
		}
		if keyAt(seg, i) == k {
			return i, true
		}
		if i++; i == segSlots {
			i = 0
		}
	}
	return segSlots, false
}

// table is a directory as read for one operation.
type table struct {
	oid pangolin.OID
	dir []byte
	n   uint64 // segments
}

// readTable reads the directory at oid. A pointer that lands on some other
// object is reported as corruption naming it, like any other unusable OID.
func readTable(get pangolin.Getter, oid pangolin.OID) (table, error) {
	dir, err := get(oid)
	if err != nil {
		return table{}, err
	}
	n := uint64(len(dir)-dirHeaderSize) / oidSize
	if len(dir) < dirHeaderSize || segOff(n) != uint64(len(dir)) || n == 0 || binary.LittleEndian.Uint64(dir) != n {
		return table{}, &pangolin.CorruptionError{OID: oid, Reason: "not a hashmap directory"}
	}
	return table{oid: oid, dir: dir, n: n}, nil
}

// readSeg reads the segment at oid, checked the same way and by its check word.
func readSeg(get pangolin.Getter, oid pangolin.OID) ([]byte, error) {
	seg, err := get(oid)
	if err != nil {
		return nil, err
	}
	if len(seg) != segSize {
		return nil, &pangolin.CorruptionError{OID: oid, Reason: "not a hashmap segment"}
	}
	if occ := occupied(seg); occ&^slotMask != 0 || binary.LittleEndian.Uint64(seg[8:]) != ^occ {
		return nil, &pangolin.CorruptionError{OID: oid, Reason: "hashmap segment bitmap fails its check word"}
	}
	return seg, nil
}

// spot is what locate learned about a key: where its chain is and, when
// found, its segment and slot; otherwise the chain's first free slot (room
// is nil when the chain is full) and its last segment (nil when empty).
type spot struct {
	t               table  // the table holding the chain, by the location rule
	s               uint64 // the chain's directory slot
	found           bool
	seg, room, last pangolin.OID
	img             []byte // seg's image
	slot, free      uint64
}

// locate finds k's chain — in the old table while its old segment has not
// migrated yet, in the current table otherwise — and walks it for k.
func locate(get pangolin.Getter, a *anchor, k uint64) (sp spot, err error) {
	h := hash(k)
	if !a.Old.IsNil() {
		if sp.t, err = readTable(get, a.Old); err != nil {
			return sp, err
		}
		sp.s = h % sp.t.n
	}
	if a.Old.IsNil() || sp.s < a.Cursor {
		if sp.t, err = readTable(get, a.Table); err != nil {
			return sp, err
		}
		sp.s = h % sp.t.n
	}
	for seg := oidAt(sp.t.dir, segOff(sp.s)); !seg.IsNil(); {
		img, err := readSeg(get, seg)
		if err != nil {
			return sp, err
		}
		i, found := probe(img, k, homeSlot(h))
		if found {
			sp.found, sp.seg, sp.img, sp.slot = true, seg, img, i
			return sp, nil
		}
		if i < segSlots && sp.room.IsNil() {
			sp.room, sp.free = seg, i
		}
		sp.last, seg = seg, oidAt(img, ovfOff)
	}
	return sp, nil
}

// lookup finds k with get.
func (m *Map) lookup(get pangolin.Getter, k uint64) (uint64, bool, error) {
	a, err := pangolin.Read[anchor](get, m.anchor)
	if err != nil {
		return 0, false, err
	}
	sp, err := locate(get, a, k)
	if err != nil || !sp.found {
		return 0, false, err
	}
	return valAt(sp.img, sp.slot), true, nil
}

// Lookup finds k with direct reads. It is a pure read (no pool writes,
// no handle state), honoring the kv.Map concurrent-read contract: on a
// ReadView instance it may run concurrently with other Lookups, gated
// against commits by the caller.
func (m *Map) Lookup(k uint64) (uint64, bool, error) { return m.lookup(m.p.Get, k) }

// LookupTx is Lookup inside the caller's transaction: the directory and
// segment reads come from the transaction's micro-buffers when open, so
// the caller's own uncommitted inserts and removes are visible.
func (m *Map) LookupTx(tx *pangolin.Tx, k uint64) (uint64, bool, error) {
	return m.lookup(tx.Get, k)
}

// Insert adds or updates k in one transaction.
func (m *Map) Insert(k, v uint64) error {
	return m.p.Run(func(tx *pangolin.Tx) error { return m.InsertTx(tx, k, v) })
}

// openAnchor opens the anchor for writing, nothing declared yet, and
// migrates one old segment chain if a migration is running.
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
		if err := m.migrate(tx, a); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// newChain allocates a chain of fresh segments, written whole without
// declared ranges, holding pairs 61 to a segment, and returns its head.
func newChain(tx *pangolin.Tx, pairs []pair) (pangolin.OID, error) {
	next := pangolin.NilOID
	for len(pairs) > 0 { // tail first, so each segment is born linked
		tail := pairs[(len(pairs)-1)/segSlots*segSlots:]
		oid, img, err := tx.Alloc(segSize, typeSegment)
		if err != nil {
			return pangolin.NilOID, err
		}
		putOID(img, ovfOff, next)
		for _, p := range tail {
			i, _ := probe(img, p.k, homeSlot(hash(p.k)))
			put(img, i, p)
		}
		next, pairs = oid, pairs[:len(pairs)-len(tail)]
	}
	return next, nil
}

// migrate moves the old chain at the cursor into new segments s and s+S_old
// as fresh chains, and frees it, the old directory with the last one; old
// slots below the cursor are never read again, so they are left as they are.
func (m *Map) migrate(tx *pangolin.Tx, a *anchor) error {
	old, err := readTable(tx.Get, a.Old)
	if err != nil {
		return err
	}
	cur, err := readTable(tx.Get, a.Table)
	if err != nil {
		return err
	}
	s := a.Cursor
	var split [2][]pair // to new segments s and s+old.n
	for seg := oidAt(old.dir, segOff(s)); !seg.IsNil(); {
		img, err := readSeg(tx.Get, seg)
		if err != nil {
			return err
		}
		for occ := occupied(img); occ != 0; occ &= occ - 1 {
			i := uint64(bits.TrailingZeros64(occ))
			j := hash(keyAt(img, i)) % cur.n / old.n
			split[j] = append(split[j], pair{keyAt(img, i), valAt(img, i)})
		}
		next := oidAt(img, ovfOff)
		if err := tx.Free(seg); err != nil {
			return err
		}
		seg = next
	}
	for j, pairs := range split {
		ns := s + uint64(j)*old.n
		if len(pairs) == 0 {
			continue
		}
		if !oidAt(cur.dir, segOff(ns)).IsNil() {
			return fmt.Errorf("hashmap: new segment %d written before old segment %d migrated", ns, s)
		}
		head, err := newChain(tx, pairs)
		if err != nil {
			return err
		}
		if err := setOID(tx, a.Table, segOff(ns), head); err != nil {
			return err
		}
	}
	if s+1 < old.n {
		if _, err := tx.AddRange(m.anchor, cursorOff, 8); err != nil {
			return err
		}
		a.Cursor = s + 1
		return nil
	}
	if _, err := tx.AddRange(m.anchor, oldOff, countOff-oldOff); err != nil {
		return err
	}
	a.Old, a.Cursor = pangolin.NilOID, 0
	return tx.Free(old.oid)
}

// grow starts a migration into a new, nil directory of segs segments.
func (m *Map) grow(tx *pangolin.Tx, a *anchor, segs uint64) error {
	for !a.Old.IsNil() { // unreachable (package comment), but never stack two old tables
		if err := m.migrate(tx, a); err != nil {
			return err
		}
	}
	dir, err := allocDir(tx, segs)
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
	sp, err := locate(tx.Get, a, k)
	switch {
	case err != nil:
		return err
	case sp.found:
		data, err := tx.AddRange(sp.seg, slotOff(sp.slot)+8, 8)
		if err == nil {
			binary.LittleEndian.PutUint64(data[slotOff(sp.slot)+8:], v)
		}
		return err
	case !sp.room.IsNil():
		if _, err := tx.AddRange(sp.room, 0, occSize); err != nil {
			return err
		}
		data, err := tx.AddRange(sp.room, slotOff(sp.free), pairSize)
		if err != nil {
			return err
		}
		put(data, sp.free, pair{k, v})
	default: // a new chain, or an overflow segment for a full one
		seg, err := newChain(tx, []pair{{k, v}})
		if err != nil {
			return err
		}
		obj, off := sp.t.oid, segOff(sp.s)
		if !sp.last.IsNil() {
			obj, off = sp.last, ovfOff
		}
		if err := setOID(tx, obj, off, seg); err != nil {
			return err
		}
	}
	if _, err := tx.AddRange(m.anchor, countOff, 8); err != nil {
		return err
	}
	a.Count++
	t := sp.t
	if t.oid != a.Table {
		if t, err = readTable(tx.Get, a.Table); err != nil {
			return err
		}
	}
	if a.Count*growDen > growNum*t.n*segSlots {
		return m.grow(tx, a, 2*t.n)
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
	sp, err := locate(tx.Get, a, k)
	if err != nil || !sp.found {
		return false, err
	}
	if err := unset(tx, sp.seg, sp.slot); err != nil {
		return false, err
	}
	if _, err := tx.AddRange(m.anchor, countOff, 8); err != nil {
		return false, err
	}
	a.Count--
	return true, nil
}

// steps is how many probe steps lead from slot from to slot to.
func steps(from, to uint64) uint64 { return (to + segSlots - from) % segSlots }

// unset empties slot hole of a segment by backward-shift deletion: along the
// probe run after the hole, a pair whose home is at least as many steps
// behind it as the hole moves into the hole, which moves to where the pair
// was. The run ends at an empty slot, at the latest the hole after a wrap.
func unset(tx *pangolin.Tx, seg pangolin.OID, hole uint64) error {
	img, err := tx.AddRange(seg, 0, occSize)
	if err != nil {
		return err
	}
	occ := occupied(img) &^ (1 << hole)
	for j := (hole + 1) % segSlots; occ&(1<<j) != 0; j = (j + 1) % segSlots {
		if steps(homeSlot(hash(keyAt(img, j))), j) < steps(hole, j) {
			continue // its home lies past the hole: moving it back would strand it
		}
		if img, err = tx.AddRange(seg, slotOff(hole), pairSize); err != nil {
			return err
		}
		copy(img[slotOff(hole):slotOff(hole)+pairSize], img[slotOff(j):])
		occ = occ&^(1<<j) | 1<<hole
		hole = j
	}
	setOccupied(img, occ)
	return nil
}

// Range calls fn for every key/value pair in unspecified order, stopping
// early if fn returns false. Reads are direct (pgl_get); do not mutate
// the map during iteration.
func (m *Map) Range(fn func(k, v uint64) bool) error {
	return m.Scan(0, ^uint64(0), fn)
}

// Scan calls fn for every pair with lo <= k <= hi in unspecified order
// (hash order gives no cheaper option than reading every segment and
// filtering), stopping early if fn returns false. It is complete — during
// a migration the current table's chains and the old table's from the
// cursor on hold each key exactly once — and a mid-scan read fault aborts
// the walk with its error (the kv.Map iteration contract).
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

// scanTable visits the chains of a table's segments from index from on —
// one read per segment that exists, none for a nil slot — reporting false
// once fn asked to stop.
func (m *Map) scanTable(dirOID pangolin.OID, from, lo, hi uint64, fn func(k, v uint64) bool) (more bool, err error) {
	t, err := readTable(m.p.Get, dirOID)
	if err != nil {
		return false, err
	}
	for s := from; s < t.n; s++ {
		for seg := oidAt(t.dir, segOff(s)); !seg.IsNil(); {
			img, err := readSeg(m.p.Get, seg)
			if err != nil {
				return false, err
			}
			for occ := occupied(img); occ != 0; occ &= occ - 1 {
				i := uint64(bits.TrailingZeros64(occ))
				if k := keyAt(img, i); k >= lo && k <= hi && !fn(k, valAt(img, i)) {
					return false, nil
				}
			}
			seg = oidAt(img, ovfOff)
		}
	}
	return true, nil
}
