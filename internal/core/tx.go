package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"github.com/pangolin-go/pangolin/internal/alloc"
	"github.com/pangolin-go/pangolin/internal/layout"
	"github.com/pangolin-go/pangolin/internal/logrec"
	"github.com/pangolin-go/pangolin/internal/mbuf"
)

// Log record kinds shared by both engine families.
const (
	recData     uint16 = 1 // redo: absolute offset + new bytes
	recAllocOp  uint16 = 2 // redo: allocator op (idempotent)
	recSnapshot uint16 = 3 // undo: absolute offset + old bytes
	recRoot     uint16 = 4 // redo: root OID + size
	recZero     uint16 = 5 // redo: absolute offset + length of a zero-filled run
)

// Tx is a transaction. A Tx belongs to one goroutine; concurrent
// transactions each use their own Tx (the paper's one-transaction-per-
// thread rule, §3.4). Two concurrent transactions must not modify the same
// object — the same restriction libpmemobj documents.
type Tx struct {
	e *Engine
	w *logrec.Writer

	bufs *mbuf.Table // pangolin modes: the micro-buffers and first images, recycled at the end

	*txSets // recycled at the end

	allocs      []alloc.Reservation
	lateRelease []alloc.Reservation // cancelled allocs, freed at tx end
	frees       []alloc.Op

	root     *rootRec
	undoSpan []span    // pmemobj: in-place ranges to persist at commit
	undoRecs []undoRec // pmemobj: in-memory rollback copies (abort path)
	covered  []span    // pmemobj: snapshotted intervals (dedup, sorted)

	// Table 3 accounting.
	statAllocBytes uint64
	statModBytes   uint64
	statFreeBytes  uint64

	done bool
}

// txSets are a transaction's per-object maps. An engine recycles them
// between its transactions (Engine.sets), cleared, so a steady write load
// makes no map per transaction.
type txSets struct {
	allocIdx   map[uint64]txAlloc // user-off → this tx's live allocation
	freed      map[uint64]bool
	directOpen map[uint64]bool // pmemobj: objects snapshotted whole
	statObjs   map[uint64]bool // Table 3 accounting: objects touched
}

// takeSets returns a recycled, empty txSets, or a new one.
func (e *Engine) takeSets() *txSets {
	if s, ok := e.sets.Get().(*txSets); ok {
		return s
	}
	return &txSets{
		allocIdx:   make(map[uint64]txAlloc),
		freed:      make(map[uint64]bool),
		directOpen: make(map[uint64]bool),
		statObjs:   make(map[uint64]bool),
	}
}

// txAlloc locates one of the transaction's own allocations: its index in
// Tx.allocs (so cancelling it is O(1)) and the user size requested (the
// allocator cannot size an extent until its op commits).
type txAlloc struct {
	idx  int
	size uint64
}

type rootRec struct {
	oid  layout.OID
	size uint64
}

type span struct{ off, n uint64 }

type undoRec struct {
	off uint64
	old []byte
}

// Begin starts a transaction. It blocks while the pool is frozen for
// recovery (§3.6) and fails once the engine is closed.
func (e *Engine) Begin() (*Tx, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	e.waitUnfrozen()
	w, err := e.lm.Begin()
	if err != nil {
		return nil, err
	}
	tx := &Tx{e: e, w: w, txSets: e.takeSets()}
	if e.mode.MicroBuffered() {
		tx.bufs = e.scratch.Table()
	}
	return tx, nil
}

// Run executes fn inside a transaction, committing on nil return and
// aborting (and returning fn's error) otherwise.
func (e *Engine) Run(fn func(*Tx) error) error {
	tx, err := e.Begin()
	if err != nil {
		return err
	}
	if err := fn(tx); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

func (tx *Tx) checkActive() error {
	if tx.done {
		return fmt.Errorf("core: transaction already finished")
	}
	return nil
}

// checkOID rejects an OID no transaction may use. A nil OID, or one this
// transaction freed, is the caller's bug. An OID from another pool was read
// from this one — a live pool never stores a foreign pointer — so it is a
// scribble the caller followed unverified (the Table 4 window), typed like
// readHeaderChecked's so owner paths repair and retry.
func (tx *Tx) checkOID(oid layout.OID) error {
	if oid.IsNil() {
		return fmt.Errorf("core: nil OID")
	}
	if oid.Pool != tx.e.uuid {
		return &CorruptionError{OID: oid, Reason: "invalid OID for this pool"}
	}
	if tx.freed[oid.Off] {
		return fmt.Errorf("core: object %#x freed by this transaction", oid.Off)
	}
	return nil
}

// Alloc allocates a persistent object with size bytes of user data and the
// given type, returning its OID and (in Pangolin modes) a micro-buffer
// image to initialize; in pmemobj modes the returned slice is the direct
// NVMM user data. The allocation becomes durable only at Commit.
func (tx *Tx) Alloc(size uint64, typ uint32) (layout.OID, []byte, error) {
	if err := tx.checkActive(); err != nil {
		return layout.NilOID, nil, err
	}
	if size == 0 {
		return layout.NilOID, nil, fmt.Errorf("core: zero-size allocation")
	}
	res, err := tx.e.heap.Reserve(size)
	if err != nil {
		return layout.NilOID, nil, err
	}
	oid := layout.OID{Pool: tx.e.uuid, Off: res.UserOff}
	hdr := layout.ObjHeader{Size: size + layout.ObjHeaderSize, Type: typ}
	tx.allocIdx[oid.Off] = txAlloc{idx: len(tx.allocs), size: size}
	tx.allocs = append(tx.allocs, res)
	tx.statAllocBytes += size
	tx.statObjs[oid.Off] = true

	if tx.e.mode.MicroBuffered() {
		b := tx.bufs.Take(oid, hdr.Size, tx.e.canary)
		clear(b.Image())
		b.Flags |= mbuf.FlagAllocated
		b.SetHeader(hdr)
		b.MarkAllModified()
		tx.bufs.Insert(b)
		tx.e.stats.mbufAdd(int64(b.Footprint()))
		return oid, b.UserData(), nil
	}
	// pmemobj: initialize the object in place (it is unreachable until
	// the allocator op commits, so no undo is needed for fresh space).
	d := tx.e.dev
	d.MarkDirty(res.Base, hdr.Size)
	img := d.Slice(res.Base, hdr.Size)
	for i := range img {
		img[i] = 0
	}
	layout.EncodeObjHeader(img, hdr)
	tx.undoSpan = append(tx.undoSpan, span{off: res.Base, n: hdr.Size})
	return oid, img[layout.ObjHeaderSize:], nil
}

// Free deallocates the object at commit. Freeing an object allocated in
// the same transaction cancels the allocation. Objects opened in this
// transaction are dropped from its write set.
func (tx *Tx) Free(oid layout.OID) error {
	if err := tx.checkActive(); err != nil {
		return err
	}
	if err := tx.checkOID(oid); err != nil {
		return err
	}
	if a, ok := tx.allocIdx[oid.Off]; ok {
		// Allocated here: cancel the allocation. The reservation is
		// released only when the transaction ends, so no concurrent
		// transaction can write the slot while this one still holds
		// snapshots or parity state referring to its bytes.
		res := tx.allocs[a.idx]
		last := len(tx.allocs) - 1
		if a.idx != last {
			// Swap-remove: allocator ops are independent, so their
			// order in the log carries no meaning.
			moved := tx.allocs[last]
			tx.allocs[a.idx] = moved
			m := tx.allocIdx[moved.UserOff]
			m.idx = a.idx
			tx.allocIdx[moved.UserOff] = m
		}
		tx.allocs = tx.allocs[:last]
		delete(tx.allocIdx, oid.Off)
		tx.lateRelease = append(tx.lateRelease, res)
		if tx.bufs != nil {
			if b, ok := tx.bufs.Lookup(oid); ok {
				tx.e.stats.mbufAdd(-int64(b.Footprint()))
				tx.bufs.Remove(oid)
			}
		}
		tx.statAllocBytes -= a.size
		return nil
	}
	hdr, err := tx.e.readHeaderChecked(oid, true)
	if err != nil {
		return err
	}
	op, err := tx.e.heap.StageFree(oid.HeaderOff())
	if err != nil {
		return err
	}
	tx.frees = append(tx.frees, op)
	tx.freed[oid.Off] = true
	tx.statFreeBytes += hdr.UserSize()
	tx.statObjs[oid.Off] = true
	if tx.bufs != nil {
		if b, ok := tx.bufs.Lookup(oid); ok {
			b.Flags |= mbuf.FlagFreed
			tx.e.stats.mbufAdd(-int64(b.Footprint()))
			tx.bufs.Remove(oid)
		}
	}
	return nil
}

// Open gives write access to an object: in Pangolin modes it creates (or
// returns) the transaction's micro-buffer, verifying the object checksum
// on first open (VerifyDefault); in pmemobj modes it snapshots the whole
// object to the undo log and returns the direct NVMM bytes. The returned
// slice is the user data.
//
// Pangolin callers that modify the buffer must declare the modified ranges
// with AddRange (pgl_tx_add_range) before writing them — declare, then
// write, as pmemobj_tx_add_range requires: the declaration keeps the
// bytes Open verified as the range's first image, and Commit folds that
// image into the checksum and parity. Whole-object modification can be
// declared with AddRange(oid, 0, len).
func (tx *Tx) Open(oid layout.OID) ([]byte, error) {
	if err := tx.checkActive(); err != nil {
		return nil, err
	}
	if err := tx.checkOID(oid); err != nil {
		return nil, err
	}
	if tx.bufs != nil {
		b, err := tx.openBuf(oid)
		if err != nil {
			return nil, err
		}
		return b.UserData(), nil
	}
	return tx.openDirect(oid)
}

// openBuf creates or fetches the micro-buffer for oid (§3.2).
func (tx *Tx) openBuf(oid layout.OID) (*mbuf.Buf, error) {
	if b, ok := tx.bufs.Lookup(oid); ok {
		return b, nil
	}
	b, err := tx.e.loadBuf(oid, tx.bufs) // both Default and Conservative verify at open
	if err != nil {
		return nil, err
	}
	tx.bufs.Insert(b)
	tx.e.stats.mbufAdd(int64(b.Footprint()))
	tx.statObjs[oid.Off] = true
	return b, nil
}

// ownDirect returns the in-place user data of an object this transaction
// allocated (pmemobj modes). Its size comes from the transaction's own
// reservation — the allocator cannot size an extent before its op commits
// — and it needs no undo snapshot: fresh space is unreachable until then,
// and Alloc already queued the whole object for commit-time persistence.
func (tx *Tx) ownDirect(oid layout.OID) ([]byte, bool) {
	if tx.bufs != nil {
		return nil, false
	}
	a, ok := tx.allocIdx[oid.Off]
	if !ok {
		return nil, false
	}
	return tx.e.dev.Slice(oid.Off, a.size), true
}

// openDirect is the pmemobj path: undo-snapshot the object, return its
// in-place bytes.
func (tx *Tx) openDirect(oid layout.OID) ([]byte, error) {
	if data, ok := tx.ownDirect(oid); ok {
		return data, nil
	}
	hdr, err := tx.e.readHeaderChecked(oid, true)
	if err != nil {
		return nil, err
	}
	d := tx.e.dev
	if tx.directOpen[oid.Off] {
		// Already snapshotted by this transaction.
		return d.Slice(oid.Off, hdr.UserSize()), nil
	}
	if err := tx.snapshot(oid.HeaderOff(), hdr.Size); err != nil {
		return nil, err
	}
	tx.directOpen[oid.Off] = true
	tx.statModBytes += hdr.UserSize()
	tx.statObjs[oid.Off] = true
	// No checksum machinery exists in pmemobj modes: every access is
	// unverified (Table 4 accounting).
	tx.e.stats.UnverifiedBytes.Add(hdr.UserSize())
	d.MarkDirty(oid.HeaderOff(), hdr.Size)
	img := d.Slice(oid.HeaderOff(), hdr.Size)
	tx.undoSpan = append(tx.undoSpan, span{off: oid.HeaderOff(), n: hdr.Size})
	return img[layout.ObjHeaderSize:], nil
}

// AddRange declares that user-data bytes [off, off+n) of the object will
// be modified (pgl_tx_add_range / pmemobj_tx_add_range), and must come
// before the writes it covers. In Pangolin modes this bounds logging,
// checksum refresh, and parity updates to the declared ranges, and keeps
// each newly declared byte's first image — copied from the verified
// micro-buffer, once, however often a later declaration overlaps it; in
// pmemobj modes it snapshots just that range.
func (tx *Tx) AddRange(oid layout.OID, off, n uint64) ([]byte, error) {
	if err := tx.checkActive(); err != nil {
		return nil, err
	}
	if err := tx.checkOID(oid); err != nil {
		return nil, err
	}
	if tx.bufs != nil {
		b, err := tx.openBuf(oid)
		if err != nil {
			return nil, err
		}
		if off+n > b.Header().UserSize() {
			return nil, fmt.Errorf("core: range [%d,%d) exceeds object size %d", off, off+n, b.Header().UserSize())
		}
		if b.Flags&mbuf.FlagAllocated == 0 {
			// A fresh object is declared whole. Count only newly
			// declared bytes (re-adding a range is free, like
			// pmemobj_tx_add_range on a snapshotted range).
			tx.statModBytes += b.MarkModified(layout.ObjHeaderSize+off, n, b.Image(), tx.bufs.Arena())
		}
		return b.UserData(), nil
	}
	if data, ok := tx.ownDirect(oid); ok {
		if off+n > uint64(len(data)) {
			return nil, fmt.Errorf("core: range [%d,%d) exceeds object size %d", off, off+n, len(data))
		}
		return data, nil
	}
	hdr, err := tx.e.readHeaderChecked(oid, true)
	if err != nil {
		return nil, err
	}
	if off+n > hdr.UserSize() {
		return nil, fmt.Errorf("core: range [%d,%d) exceeds object size %d", off, off+n, hdr.UserSize())
	}
	abs := oid.Off + off
	if err := tx.snapshot(abs, n); err != nil {
		return nil, err
	}
	tx.statModBytes += n
	tx.statObjs[oid.Off] = true
	// pmemobj has no checksums: the range access is unverified
	// (Table 4 accounting).
	tx.e.stats.UnverifiedBytes.Add(n)
	d := tx.e.dev
	d.MarkDirty(abs, n)
	tx.undoSpan = append(tx.undoSpan, span{off: abs, n: n})
	// Return the whole user-data view (same shape as the Pangolin path);
	// only the declared range is snapshotted and persisted.
	return d.Slice(oid.Off, hdr.UserSize()), nil
}

// snapshot durably appends undo records for the not-yet-covered parts of
// [off, off+n) before the caller writes in place (§2.3), activating the
// lane on first use. Re-snapshotting a covered range is free, as with
// libpmemobj's range tree: rollback needs only each byte's first image.
func (tx *Tx) snapshot(off, n uint64) error {
	if tx.w == nil {
		return fmt.Errorf("core: transaction log unavailable")
	}
	if tx.undoSpan == nil {
		tx.w.Activate()
	}
	for _, seg := range subtractCovered(tx.covered, span{off: off, n: n}) {
		if err := tx.snapshotRaw(seg.off, seg.n); err != nil {
			return err
		}
		tx.covered = insertSpan(tx.covered, seg)
	}
	return nil
}

func (tx *Tx) snapshotRaw(off, n uint64) error {
	maxP := tx.e.lm.MaxPayload() - 8
	for n > 0 {
		chunk := min(n, maxP)
		payload := make([]byte, 8+chunk)
		binary.LittleEndian.PutUint64(payload, off)
		if err := tx.e.dev.ReadAt(payload[8:], off); err != nil {
			return err
		}
		if err := tx.w.AppendDurable(recSnapshot, payload); err != nil {
			return err
		}
		tx.undoRecs = append(tx.undoRecs, undoRec{off: off, old: payload[8:]})
		tx.e.stats.LoggedBytes.Add(uint64(len(payload)))
		off += chunk
		n -= chunk
	}
	return nil
}

// subtractCovered returns the parts of s not covered by the sorted,
// disjoint interval list.
func subtractCovered(covered []span, s span) []span {
	var out []span
	cur := s
	for _, c := range covered {
		if c.off+c.n <= cur.off {
			continue
		}
		if c.off >= cur.off+cur.n {
			break
		}
		if c.off > cur.off {
			out = append(out, span{off: cur.off, n: c.off - cur.off})
		}
		covEnd := c.off + c.n
		if covEnd >= cur.off+cur.n {
			return out
		}
		cur = span{off: covEnd, n: cur.off + cur.n - covEnd}
	}
	if cur.n > 0 {
		out = append(out, cur)
	}
	return out
}

// insertSpan adds s to a sorted disjoint interval list, merging
// neighbours. The insert is done in place: binary-search the merge
// window, coalesce every overlapping or adjacent span into s, and shift
// the tail once — no re-sort, so a transaction inserting n small ranges
// pays O(n log n) total instead of the O(n² log n) a per-insert sort
// costs.
func insertSpan(covered []span, s span) []span {
	start, end := s.off, s.off+s.n
	// lo: first span that could merge with s (its end reaches s.off —
	// adjacency merges too, hence >=).
	lo := sort.Search(len(covered), func(i int) bool {
		return covered[i].off+covered[i].n >= start
	})
	// hi: one past the last span that could merge (its start is within or
	// adjacent to s's end).
	hi := lo
	for hi < len(covered) && covered[hi].off <= end {
		start = min(start, covered[hi].off)
		end = max(end, covered[hi].off+covered[hi].n)
		hi++
	}
	merged := span{off: start, n: end - start}
	if hi == lo {
		// No overlap: open a slot at lo.
		covered = append(covered, span{})
		copy(covered[lo+1:], covered[lo:])
		covered[lo] = merged
		return covered
	}
	covered[lo] = merged
	return append(covered[:lo+1], covered[hi:]...)
}

// Get returns read-only access to an object's user data. Inside a
// transaction that has the object open, it returns the micro-buffer view
// (isolation, §3.4); otherwise it returns the NVMM bytes directly without
// copying, under Engine.Get's rule.
func (tx *Tx) Get(oid layout.OID) ([]byte, error) {
	if err := tx.checkActive(); err != nil {
		return nil, err
	}
	if err := tx.checkOID(oid); err != nil {
		return nil, err
	}
	if tx.bufs != nil {
		if b, ok := tx.bufs.Lookup(oid); ok {
			return b.UserData(), nil
		}
	}
	if data, ok := tx.ownDirect(oid); ok {
		return data, nil
	}
	return tx.e.Get(oid)
}

// setRoot records a root-pointer update to commit with this transaction.
func (tx *Tx) setRoot(oid layout.OID, size uint64) {
	tx.root = &rootRec{oid: oid, size: size}
}

// Abort discards the transaction. Pangolin aborts never touch NVMM (the
// micro-buffers are simply dropped, §3.4); pmemobj aborts roll back via
// the undo log.
func (tx *Tx) Abort() {
	if tx.done {
		return
	}
	tx.done = true
	e := tx.e
	if tx.bufs != nil {
		e.stats.mbufAdd(-int64(tx.bufs.Bytes()))
	}
	tx.abortReleasing()
	tx.release()
}

// release recycles a finished transaction's micro-buffers and first
// images (mbuf.Table.Release), after their last use: every slice Open,
// AddRange or Alloc returned is invalid from here on. Its maps go back
// to the engine cleared.
func (tx *Tx) release() {
	if tx.bufs != nil {
		tx.bufs.Release()
		tx.bufs = nil
	}
	if s := tx.txSets; s != nil {
		tx.txSets = nil
		clear(s.allocIdx)
		clear(s.freed)
		clear(s.directOpen)
		clear(s.statObjs)
		tx.e.sets.Put(s)
	}
}

func (tx *Tx) releaseLate() {
	for _, res := range tx.lateRelease {
		tx.e.heap.Release(res)
	}
	tx.lateRelease = nil
}

// rollbackDirect restores pmemobj in-place writes from the snapshots taken
// during this transaction (abort path; the crash path replays the same
// records from media). One fence persists them and every in-place span,
// an aborted Alloc's initialisation included.
func (tx *Tx) rollbackDirect() {
	for i := len(tx.undoRecs) - 1; i >= 0; i-- {
		r := tx.undoRecs[i]
		tx.e.dev.WriteAt(r.off, r.old)
		tx.e.dev.Flush(r.off, uint64(len(r.old)))
	}
	for _, s := range tx.undoSpan {
		tx.e.dev.Flush(s.off, s.n)
	}
	tx.e.dev.Fence()
	if tx.e.replica != nil {
		// Resync the replica over the rolled-back ranges.
		for _, s := range tx.undoSpan {
			tx.e.replica.WriteAt(s.off, tx.e.dev.Slice(s.off, s.n))
			tx.e.replica.Persist(s.off, s.n)
		}
	}
}
