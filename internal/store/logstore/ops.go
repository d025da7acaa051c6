package logstore

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"github.com/pangolin-go/pangolin"
	"github.com/pangolin-go/pangolin/internal/durable"
	"github.com/pangolin-go/pangolin/internal/store"
)

// Get implements store.Store: an index lookup followed by a re-read of
// the framed record on media — the log engine's "verified read". A CRC
// or frame mismatch surfaces as a typed *pangolin.CorruptionError (the
// OID encodes segment id and offset); there is no repair path.
func (s *Store) Get(k uint64) (uint64, bool, error) {
	e, ok := s.idx[k]
	if !ok {
		return 0, false, nil
	}
	v, err := s.readVerified(e, k)
	if err != nil {
		return 0, false, err
	}
	return v, true, nil
}

// recPool recycles readVerified's record buffers. A buffer handed to
// ReadAt escapes to the heap, and the read view's concurrent readers
// cannot share a store-owned one.
var recPool = sync.Pool{New: func() any { return new([recSize]byte) }}

// readVerified reads the record backing e and checks frame integrity
// and that it really is a put of k.
func (s *Store) readVerified(e entry, k uint64) (uint64, error) {
	corrupt := func(reason string) error {
		return &pangolin.CorruptionError{
			OID:    pangolin.OID{Pool: uint64(e.seg), Off: uint64(e.off)},
			Reason: "logstore: " + reason,
		}
	}
	sg := s.segByID(e.seg)
	if sg == nil {
		return 0, corrupt("index points at a missing segment")
	}
	rec := recPool.Get().(*[recSize]byte)
	defer recPool.Put(rec)
	if _, err := sg.f.ReadAt(rec[:], e.off); err != nil {
		return 0, corrupt("record read failed: " + err.Error())
	}
	kind, _, key, val, ok := decodeRecord(rec[:])
	if !ok {
		return 0, corrupt("record crc mismatch")
	}
	if kind != recPut || key != k {
		return 0, corrupt("record frame mismatch")
	}
	return val, nil
}

// Scan implements store.Store: an unordered-but-complete walk of the
// in-range index entries, serving the values cached in the index.
func (s *Store) Scan(lo, hi uint64, fn func(k, v uint64) bool) error {
	if lo > hi {
		return nil
	}
	for k, e := range s.idx {
		if k < lo || k > hi {
			continue
		}
		if !fn(k, e.val) {
			return nil
		}
	}
	return nil
}

// Apply implements store.Store: encode the batch's puts and deletes as
// one run of data records sealed by a commit record, append it with a
// single write, then fold it into the index computing per-op results
// (gets inside the batch observe the batch's earlier ops). Atomicity is
// structural — recovery ignores any run without its commit record — and
// on a write error the tail is truncated back, so nothing is applied.
func (s *Store) Apply(ops []store.Op) ([]store.Result, error) {
	if s.closed {
		return nil, fmt.Errorf("logstore: store closed")
	}
	nData := 0
	for _, op := range ops {
		switch op.Kind {
		case store.OpPut, store.OpDel:
			nData++
		case store.OpGet:
		default:
			return nil, fmt.Errorf("logstore: unknown op kind %d", op.Kind)
		}
	}
	// The result slice is store-owned scratch (store.Store's Apply
	// contract): valid until the next Apply, so the single owner
	// goroutine reuses it across batches instead of allocating per call.
	if cap(s.resBuf) < len(ops) {
		s.resBuf = make([]store.Result, len(ops))
	}
	res := s.resBuf[:len(ops)]
	if nData == 0 {
		for i, op := range ops {
			e, ok := s.idx[op.K]
			res[i] = store.Result{V: e.val, OK: ok}
		}
		return res, nil
	}
	act := s.active()
	buf := s.buf[:0]
	offs := s.offsBuf[:0]
	// With pinned snapshots open, preserve each mutated key's pre-batch
	// state in the version buffer (the index is untouched until the
	// batch is durable, so these reads see exactly the prior committed
	// state). The merge's copy-forward rewrites identical values, so it
	// never needs to preserve anything.
	recording := !s.merging && s.vb.Recording()
	for _, op := range ops {
		switch op.Kind {
		case store.OpPut:
			if recording {
				e, ok := s.idx[op.K]
				s.vb.Stage(op.K, e.val, ok)
			}
			offs = append(offs, act.size+int64(len(buf)))
			buf = encodeRecord(buf, recPut, s.batch, op.K, op.V)
		case store.OpDel:
			if recording {
				e, ok := s.idx[op.K]
				s.vb.Stage(op.K, e.val, ok)
			}
			offs = append(offs, act.size+int64(len(buf)))
			buf = encodeRecord(buf, recDel, s.batch, op.K, 0)
		}
	}
	buf = encodeRecord(buf, recCommit, s.batch, uint64(nData), 0)
	s.buf, s.offsBuf = buf, offs
	if _, err := act.f.WriteAt(buf, act.size); err != nil {
		// Nothing is applied: restore the tail so the failed bytes can
		// never be replayed (best-effort; recovery's committed-batch scan
		// is the backstop).
		_ = act.f.Truncate(act.size)
		s.vb.Abort()
		return nil, fmt.Errorf("logstore: append batch: %w", err)
	}
	s.batch++
	s.vb.Commit()
	act.size += int64(len(buf))
	act.records += uint64(nData)
	di := 0
	for i, op := range ops {
		switch op.Kind {
		case store.OpPut:
			s.indexApply(act.id, recPut, op.K, offs[di], op.V)
			di++
			res[i] = store.Result{OK: true}
		case store.OpGet:
			e, ok := s.idx[op.K]
			res[i] = store.Result{V: e.val, OK: ok}
		case store.OpDel:
			_, present := s.idx[op.K]
			s.indexApply(act.id, recDel, op.K, offs[di], 0)
			di++
			res[i] = store.Result{OK: present}
		}
	}
	if act.size >= s.segBytes {
		if err := s.rotate(); err != nil {
			// The batch is applied and readable; rotation failing only
			// delays sealing. It must NOT surface through Apply's error
			// return — store.Store promises an Apply error means nothing
			// was applied, and the shard worker retries the whole group
			// per-op on that basis, which would double-apply this batch.
			// Stash it instead: the threshold check retries on every later
			// Apply (the tail only grows), and ScrubStep both retries and
			// reports persistent failure as a maintenance error.
			s.rotateErr = err
		} else {
			s.rotateErr = nil
		}
	}
	return res, nil
}

// retryRotate re-attempts a rotation that failed during Apply and was
// deferred. Clears rotateErr on success (or if the pressure is gone);
// keeps it and returns the failure otherwise.
func (s *Store) retryRotate() error {
	if s.rotateErr == nil || s.active().size < s.segBytes {
		s.rotateErr = nil
		return nil
	}
	if err := s.rotate(); err != nil {
		s.rotateErr = err
		return fmt.Errorf("logstore: deferred rotation: %w", err)
	}
	s.rotateErr = nil
	return nil
}

// rotate seals the active segment — fsync, then a hint file with its
// final per-key state — and opens the next one. Called at batch
// boundaries only, so segments always end on a complete batch.
func (s *Store) rotate() error {
	act := s.active()
	if err := act.f.Sync(); err != nil {
		return fmt.Errorf("logstore: seal segment %d: %w", act.id, err)
	}
	if err := s.writeHint(act); err != nil {
		return err
	}
	return s.addSegment(act.id + 1)
}

// Save implements store.Store: fsync the active tail (sealed segments
// were fsynced at rotation) and the directory, and supersede any
// pending crash image — after a save everything is on media, so the
// simulated crash it described can no longer lose anything.
func (s *Store) Save() error {
	act := s.active()
	if err := act.f.Sync(); err != nil {
		return fmt.Errorf("logstore: save: %w", err)
	}
	s.synced = act.size
	if s.crashPending {
		if err := os.Remove(filepath.Join(s.dir, crashName)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("logstore: save: %w", err)
		}
		s.crashPending = false
	}
	return durable.SyncDir(s.dir)
}

// CrashSave implements store.Store: record the crash image as a sidecar
// — a seeded cut inside the active segment's unsynced tail, the bytes a
// power failure may or may not have reached media with — without
// disturbing the live store (which keeps appending to the same files;
// the next Open truncates to the cut and drops younger segments).
// While the sidecar is pending, merges are suspended: the image needs
// every pre-crash segment file intact.
func (s *Store) CrashSave(seed int64) error {
	act := s.active()
	unsynced := act.size - s.synced
	cut := crashCut{Seg: act.id, Off: s.synced + int64(mix64(uint64(seed))%uint64(unsynced+1))}
	err := durable.WriteFile(filepath.Join(s.dir, crashName), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(cut)
	})
	if err != nil {
		return fmt.Errorf("logstore: crash save: %w", err)
	}
	s.crashPending = true
	return nil
}

// mix64 is the splitmix64 finalizer, decorrelating crash cuts across
// nearby seeds.
func mix64(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}

// view is the concurrent read handle: pure reads against the index and
// segment files, safe from any number of goroutines while the owner is
// quiescent (the shard reader gate provides that exclusion — the same
// contract as the pangolin ReadView).
type view struct{ s *Store }

// ReadView implements store.ReadViewer.
func (s *Store) ReadView() (store.View, error) { return view{s: s}, nil }

// OpenSnapshot pins the current committed generation (the batch
// counter) in the version buffer. Subsequent batches preserve
// overwritten pre-states there, so the snapshot resolves every read at
// exactly the pinned generation.
func (s *Store) OpenSnapshot() (*store.Snapshot, error) {
	if s.closed {
		return nil, fmt.Errorf("logstore: store closed")
	}
	return s.vb.Open(s.Ordered()), nil
}

func (v view) Get(k uint64) (uint64, bool, error) { return v.s.Get(k) }
func (v view) Scan(lo, hi uint64, fn func(k, v uint64) bool) error {
	return v.s.Scan(lo, hi, fn)
}

// Hint files record a sealed segment's final per-key state so reopening
// replays one small file instead of rescanning the segment:
//
//	magic u64 | seg u64 | records u64 | maxBatch u64 | count u64
//	count × (kind u8 | key u64 | off u64 | val u64)
//	crc32 over everything before it
const hintEntrySize = 25

// writeHint scans the sealed segment and writes its hint atomically. A
// hint is an optimization, never a source of truth: a missing or
// invalid one falls back to the strict segment scan.
func (s *Store) writeHint(seg *segment) error {
	type hintEntry struct {
		kind byte
		off  int64
		val  uint64
	}
	final := make(map[uint64]hintEntry)
	var order []uint64 // deterministic hint bytes: first-seen key order
	_, maxBatch, _, err := scanSegment(seg, true, func(kind byte, key uint64, off int64, val uint64) {
		if _, seen := final[key]; !seen {
			order = append(order, key)
		}
		final[key] = hintEntry{kind: kind, off: off, val: val}
	})
	if err != nil {
		return fmt.Errorf("logstore: hint for segment %d: %w", seg.id, err)
	}
	buf := make([]byte, 0, 40+len(final)*hintEntrySize+4)
	var hdr [40]byte
	binary.LittleEndian.PutUint64(hdr[0:], hintMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(seg.id))
	binary.LittleEndian.PutUint64(hdr[16:], seg.records)
	binary.LittleEndian.PutUint64(hdr[24:], maxBatch)
	binary.LittleEndian.PutUint64(hdr[32:], uint64(len(final)))
	buf = append(buf, hdr[:]...)
	for _, key := range order {
		e := final[key]
		var ent [hintEntrySize]byte
		ent[0] = e.kind
		binary.LittleEndian.PutUint64(ent[1:], key)
		binary.LittleEndian.PutUint64(ent[9:], uint64(e.off))
		binary.LittleEndian.PutUint64(ent[17:], e.val)
		buf = append(buf, ent[:]...)
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(buf))
	buf = append(buf, crc[:]...)
	return durable.WriteFile(hintPath(s.dir, seg.id), func(w io.Writer) error {
		_, err := w.Write(buf)
		return err
	})
}

// loadHint replays a sealed segment's hint into the index. ok=false —
// missing, truncated, or failing its CRC — means the caller must fall
// back to scanning the segment itself.
func (s *Store) loadHint(seg *segment) (records uint64, ok bool) {
	data, err := os.ReadFile(hintPath(s.dir, seg.id))
	if err != nil || len(data) < 44 {
		return 0, false
	}
	body, crc := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != crc {
		return 0, false
	}
	if binary.LittleEndian.Uint64(body[0:]) != hintMagic ||
		binary.LittleEndian.Uint64(body[8:]) != uint64(seg.id) {
		return 0, false
	}
	records = binary.LittleEndian.Uint64(body[16:])
	maxBatch := binary.LittleEndian.Uint64(body[24:])
	count := binary.LittleEndian.Uint64(body[32:])
	if uint64(len(body)) != 40+count*hintEntrySize {
		return 0, false
	}
	for i := uint64(0); i < count; i++ {
		ent := body[40+i*hintEntrySize:]
		kind := ent[0]
		if kind != recPut && kind != recDel {
			return 0, false
		}
		key := binary.LittleEndian.Uint64(ent[1:])
		off := int64(binary.LittleEndian.Uint64(ent[9:]))
		s.indexApply(seg.id, kind, key, off, binary.LittleEndian.Uint64(ent[17:]))
	}
	if maxBatch >= s.batch {
		s.batch = maxBatch + 1
	}
	return records, true
}
