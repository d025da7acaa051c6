// Package logstore is the append-only (bitcask-style) storage backend:
// the in-repo baseline the paper's engine races against. Each shard is
// a directory of CRC-framed segment files plus an in-memory index from
// key to the newest record holding it; writes append — a batch of
// operations becomes a run of data records sealed by one commit record,
// so the batch is atomic by construction (recovery drops any tail
// without its commit) — and point reads re-verify the framed record on
// media before trusting it. Sealed segments get hint files (the
// segment's final per-key state) so reopening skips the full scan, and
// background merge/compaction — driven through ScrubStep by the shard
// layer's existing maintenance scheduler — rewrites the oldest sealed
// segment's live records to the tail and deletes it, reclaiming dead
// records and tombstones.
//
// Contrast with pangolinstore: no parity and no online repair, so
// corruption is detected (CRC mismatches surface as the same typed
// *pangolin.CorruptionError taxonomy) but never healed, and the store
// deliberately does not implement store.FaultInjector. What it buys is
// raw write speed: one sequential file append per committed batch, no
// checksum/parity maintenance per object.
//
// # On-disk layout
//
//	shard-0007.log/
//	  MANIFEST       JSON: structure name, shard index, set size
//	  000000.seg     record log (sealed)
//	  000000.hint    sealed segment's final per-key state + CRC
//	  000001.seg     record log (active tail)
//	  CRASH          crash-image sidecar, present only between
//	                 CrashSave and the next Save or reopen
//
// Every record is 29 bytes: crc32(4) | kind(1) | batch(8) | key(8) |
// val(8), little-endian, CRC over everything after itself. kind is
// put/del/commit; a commit record's key field carries the batch's data
// record count.
//
// # Crash model
//
// Like the pangolin backend, durability is checkpointed: rotation and
// Save fsync, individual commits do not (the analog of the simulated
// device's unflushed lines). CrashSave therefore does not copy files —
// the live store keeps appending to them — it records a sidecar with a
// seeded cut offset inside the active segment's unsynced tail: the
// bytes a dying machine might or might not have gotten to media. The
// next Open applies the cut — truncate the cut segment there, drop
// every younger segment — then runs normal recovery, which truncates
// further back to the last complete committed batch. Save supersedes a
// pending crash image (everything is synced again) and removes the
// sidecar. While a sidecar is pending, merges are suspended: compaction
// deletes segment files, and the crash image needs every pre-crash
// segment intact.
package logstore

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/pangolin-go/pangolin"
	"github.com/pangolin-go/pangolin/internal/durable"
	"github.com/pangolin-go/pangolin/internal/store"
)

// Record kinds.
const (
	recPut    byte = 1
	recDel    byte = 2
	recCommit byte = 3 // seals a batch; key = the batch's data record count
)

// recSize is every record's fixed encoded size.
const recSize = 29

// hintMagic heads every hint file.
const hintMagic uint64 = 0x50474c48494e5431 // "PGLHINT1"

// defaultSegmentBytes is the rotation threshold when Options leaves it
// zero: small enough that tests and the ledger's log_batch workload
// actually rotate and compact, large enough that rotation stays off the
// per-batch path.
const defaultSegmentBytes = 1 << 20

const (
	manifestName = "MANIFEST"
	crashName    = "CRASH"
)

// ShardDir returns shard i's log directory within a set directory,
// sibling to the pangolin backend's shard-%04d.pgl files.
func ShardDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d.log", i))
}

// Options configures a log store.
type Options struct {
	// Structure is the set's kv structure name, recorded in the manifest
	// so a set can verify its shards agree on open (the log engine
	// itself is structure-less; scans are unordered).
	Structure string
	// Index / Count are this shard's position and the set size, recorded
	// in the manifest and validated on open exactly like the pangolin
	// backend's shard roots.
	Index, Count int
	// SegmentBytes is the rotation threshold; 0 selects the default.
	SegmentBytes int64
	// Scrub bounds one ScrubStep's work: MaxObjectsPerStep records
	// CRC-verified or merged per step.
	Scrub pangolin.ScrubberConfig
}

func (o *Options) segmentBytes() int64 {
	if o.SegmentBytes <= 0 {
		return defaultSegmentBytes
	}
	return o.SegmentBytes
}

type manifest struct {
	Magic     string `json:"magic"`
	Structure string `json:"structure"`
	Index     int    `json:"index"`
	Count     int    `json:"count"`
}

const manifestMagic = "pangolin-logstore-v1"

// entry is one key's index slot: where its newest put record lives, and
// the value that record carries (cached so scans never touch media).
type entry struct {
	seg int
	off int64
	val uint64
}

// segment is one log file's in-memory state. records counts the data
// records ever appended to it (tombstones included, commits excluded);
// live counts the index entries currently pointing into it, so
// records-live is the segment's reclaimable dead weight.
type segment struct {
	id      int
	f       *os.File
	size    int64
	records uint64
	live    uint64
}

// Store is one shard's log engine. Like every store.Store it belongs to
// one owner goroutine; the read view's concurrent Get/Scan rely on the
// owner being quiescent (the shard reader gate).
type Store struct {
	dir       string
	structure string
	index     int
	count     int
	segBytes  int64
	scrub     pangolin.ScrubberConfig

	segs  []*segment // ascending id; the last is the active tail
	idx   map[uint64]entry
	batch uint64 // next batch id

	synced       int64 // active segment's fsynced prefix
	crashPending bool  // CRASH sidecar on disk: merges suspended
	rotateErr    error // rotation failure deferred out of Apply; retried later

	compactions   uint64
	mergedRecords uint64

	merge       *mergeJob
	verify      store.ScrubPass // ScrubStep's background CRC pass; nil between passes
	quarantined map[int]bool    // segments a merge found corruption in: never re-merged

	vb      *store.VersionBuffer // pinned-snapshot version retention
	merging bool                 // inside mergeStep's copy-forward Apply: no staging

	buf     []byte         // Apply's encode buffer
	offsBuf []int64        // Apply's per-record offset buffer
	resBuf  []store.Result // Apply's result scratch; valid until the next Apply

	closed bool
}

var _ store.Store = (*Store)(nil)

func segPath(dir string, id int) string  { return filepath.Join(dir, fmt.Sprintf("%06d.seg", id)) }
func hintPath(dir string, id int) string { return filepath.Join(dir, fmt.Sprintf("%06d.hint", id)) }

// Create initializes a fresh log store in dir (created; must not
// already hold one) with an empty active segment.
func Create(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
		return nil, fmt.Errorf("logstore: store already exists in %s", dir)
	}
	m := manifest{Magic: manifestMagic, Structure: opts.Structure, Index: opts.Index, Count: opts.Count}
	err := durable.WriteFile(filepath.Join(dir, manifestName), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(m)
	})
	if err != nil {
		return nil, err
	}
	s := &Store{
		dir:       dir,
		structure: opts.Structure,
		index:     opts.Index,
		count:     opts.Count,
		segBytes:  opts.segmentBytes(),
		scrub:     opts.Scrub,
		idx:       make(map[uint64]entry),
		batch:     1,
		vb:        store.NewVersionBuffer(),
	}
	if err := s.addSegment(0); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Open recovers a log store from dir: apply any pending crash cut,
// rebuild the index from hint files (or a strict scan) for sealed
// segments, and scan the active segment tolerantly — truncating any
// tail beyond the last complete committed batch, which is how a torn
// crash cut heals. CRC mismatches in sealed segments are real
// corruption and fail the open with a typed *pangolin.CorruptionError.
func Open(dir string, opts Options) (*Store, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("logstore: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("logstore: bad manifest in %s: %w", dir, err)
	}
	if m.Magic != manifestMagic {
		return nil, fmt.Errorf("logstore: %s is not a logstore shard (magic %q)", dir, m.Magic)
	}
	if m.Index != opts.Index || m.Count != opts.Count {
		return nil, fmt.Errorf("logstore: manifest says shard %d of %d, want shard %d of %d: shard dirs shuffled or mixed between sets",
			m.Index, m.Count, opts.Index, opts.Count)
	}
	if err := applyCrashCut(dir); err != nil {
		return nil, err
	}
	ids, err := segmentIDs(dir)
	if err != nil {
		return nil, err
	}
	s := &Store{
		dir:       dir,
		structure: m.Structure,
		index:     m.Index,
		count:     m.Count,
		segBytes:  opts.segmentBytes(),
		scrub:     opts.Scrub,
		idx:       make(map[uint64]entry),
		batch:     1,
		vb:        store.NewVersionBuffer(),
	}
	if len(ids) == 0 {
		// A crash cut can erase every segment (nothing was ever synced):
		// recover to an empty store.
		if err := s.addSegment(0); err != nil {
			s.Close()
			return nil, err
		}
		return s, nil
	}
	for pos, id := range ids {
		f, err := os.OpenFile(segPath(dir, id), os.O_RDWR, 0o666)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("logstore: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			s.Close()
			return nil, fmt.Errorf("logstore: %w", err)
		}
		seg := &segment{id: id, f: f, size: st.Size()}
		s.segs = append(s.segs, seg)
		sealed := pos < len(ids)-1
		if sealed {
			if err := s.recoverSealed(seg); err != nil {
				s.Close()
				return nil, err
			}
		} else {
			if err := s.recoverActive(seg); err != nil {
				s.Close()
				return nil, err
			}
		}
	}
	s.synced = s.active().size
	return s, nil
}

// recoverSealed loads one sealed segment's final state, preferring its
// hint file and falling back to a strict scan (any CRC mismatch or torn
// batch in a sealed segment is corruption, not a crash artifact — it
// was fsynced whole at rotation).
func (s *Store) recoverSealed(seg *segment) error {
	if records, ok := s.loadHint(seg); ok {
		seg.records = records
		return nil
	}
	records, maxBatch, end, err := scanSegment(seg, true, func(kind byte, key uint64, off int64, val uint64) {
		s.indexApply(seg.id, kind, key, off, val)
	})
	if err != nil {
		return err
	}
	_ = end
	seg.records = records
	if maxBatch >= s.batch {
		s.batch = maxBatch + 1
	}
	return nil
}

// recoverActive scans the active segment, truncating everything past
// the last complete committed batch (a torn append or crash cut).
func (s *Store) recoverActive(seg *segment) error {
	records, maxBatch, end, err := scanSegment(seg, false, func(kind byte, key uint64, off int64, val uint64) {
		s.indexApply(seg.id, kind, key, off, val)
	})
	if err != nil {
		return err
	}
	if end < seg.size {
		if err := seg.f.Truncate(end); err != nil {
			return fmt.Errorf("logstore: truncate torn tail of segment %d: %w", seg.id, err)
		}
		seg.size = end
	}
	seg.records = records
	if maxBatch >= s.batch {
		s.batch = maxBatch + 1
	}
	return nil
}

// indexApply folds one recovered or applied record into the index,
// last-wins, keeping per-segment live counts exact.
func (s *Store) indexApply(segID int, kind byte, key uint64, off int64, val uint64) {
	if old, ok := s.idx[key]; ok {
		if sg := s.segByID(old.seg); sg != nil {
			sg.live--
		}
	}
	if kind == recPut {
		s.idx[key] = entry{seg: segID, off: off, val: val}
		if sg := s.segByID(segID); sg != nil {
			sg.live++
		}
	} else {
		delete(s.idx, key)
	}
}

func (s *Store) segByID(id int) *segment {
	for _, sg := range s.segs {
		if sg.id == id {
			return sg
		}
	}
	return nil
}

func (s *Store) active() *segment { return s.segs[len(s.segs)-1] }

// addSegment creates and opens a fresh active segment file.
func (s *Store) addSegment(id int) error {
	f, err := os.OpenFile(segPath(s.dir, id), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
	if err != nil {
		return fmt.Errorf("logstore: %w", err)
	}
	s.segs = append(s.segs, &segment{id: id, f: f})
	s.synced = 0
	return durable.SyncDir(s.dir)
}

// segmentIDs lists the segment ids present in dir, ascending.
func segmentIDs(dir string) ([]int, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		return nil, err
	}
	ids := make([]int, 0, len(names))
	for _, name := range names {
		base := strings.TrimSuffix(filepath.Base(name), ".seg")
		id, err := strconv.Atoi(base)
		if err != nil {
			return nil, fmt.Errorf("logstore: stray segment file %s", name)
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids, nil
}

// crashCut is the CRASH sidecar's contents: the active segment and the
// byte offset within it that "made it to media".
type crashCut struct {
	Seg int   `json:"seg"`
	Off int64 `json:"off"`
}

// applyCrashCut consumes a pending CRASH sidecar: drop every segment
// younger than the cut, truncate the cut segment to the cut offset, and
// invalidate its hint (the file no longer matches it). The sidecar is
// removed; recovery then proceeds on what a dead machine would have
// held.
func applyCrashCut(dir string) error {
	data, err := os.ReadFile(filepath.Join(dir, crashName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("logstore: %w", err)
	}
	var cut crashCut
	if err := json.Unmarshal(data, &cut); err != nil {
		return fmt.Errorf("logstore: bad crash sidecar in %s: %w", dir, err)
	}
	ids, err := segmentIDs(dir)
	if err != nil {
		return err
	}
	for _, id := range ids {
		if id > cut.Seg {
			if err := os.Remove(segPath(dir, id)); err != nil {
				return fmt.Errorf("logstore: drop post-crash segment %d: %w", id, err)
			}
			os.Remove(hintPath(dir, id)) // best-effort; may not exist
		}
	}
	if err := os.Truncate(segPath(dir, cut.Seg), cut.Off); err != nil {
		return fmt.Errorf("logstore: apply crash cut to segment %d: %w", cut.Seg, err)
	}
	os.Remove(hintPath(dir, cut.Seg)) // stale beyond the cut; rebuild by scan
	if err := os.Remove(filepath.Join(dir, crashName)); err != nil {
		return fmt.Errorf("logstore: %w", err)
	}
	return durable.SyncDir(dir)
}

// Structure returns the kv structure name recorded in the manifest.
func (s *Store) Structure() string { return s.structure }

// Backend implements store.Store.
func (s *Store) Backend() string { return store.BackendLog }

// Ordered implements store.Store: log scans serve from the index map,
// unordered but complete.
func (s *Store) Ordered() bool { return false }

// Stats implements store.Store.
func (s *Store) Stats() store.Stats {
	st := store.Stats{
		Backend:             store.BackendLog,
		Objects:             len(s.idx),
		Segments:            len(s.segs),
		Compactions:         s.compactions,
		MergedRecords:       s.mergedRecords,
		QuarantinedSegments: len(s.quarantined),
		SnapshotPins:        s.vb.Pins(),
		VersionsRetained:    s.vb.Retained(),
	}
	var records, live uint64
	for _, sg := range s.segs {
		st.Bytes += uint64(sg.size)
		records += sg.records
		live += sg.live
	}
	st.DeadRecords = records - live
	return st
}

// Close implements store.Store: release file handles without saving.
func (s *Store) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	for _, sg := range s.segs {
		if sg.f != nil {
			sg.f.Close()
		}
	}
	s.segs = nil
	s.idx = nil
	return nil
}

// encodeRecord appends one record to buf, encoding and checksumming it
// in place at buf's tail: a record staged in a local array escapes to
// the heap through the checksum call, one allocation per record.
func encodeRecord(buf []byte, kind byte, batch, key, val uint64) []byte {
	n := len(buf)
	buf = append(buf, make([]byte, recSize)...)
	rec := buf[n:]
	rec[4] = kind
	binary.LittleEndian.PutUint64(rec[5:], batch)
	binary.LittleEndian.PutUint64(rec[13:], key)
	binary.LittleEndian.PutUint64(rec[21:], val)
	binary.LittleEndian.PutUint32(rec[0:], crc32.ChecksumIEEE(rec[4:]))
	return buf
}

// decodeRecord parses and CRC-verifies one record.
func decodeRecord(rec []byte) (kind byte, batch, key, val uint64, ok bool) {
	if len(rec) < recSize {
		return 0, 0, 0, 0, false
	}
	if binary.LittleEndian.Uint32(rec[0:]) != crc32.ChecksumIEEE(rec[4:recSize]) {
		return 0, 0, 0, 0, false
	}
	kind = rec[4]
	if kind != recPut && kind != recDel && kind != recCommit {
		return 0, 0, 0, 0, false
	}
	batch = binary.LittleEndian.Uint64(rec[5:])
	key = binary.LittleEndian.Uint64(rec[13:])
	val = binary.LittleEndian.Uint64(rec[21:])
	return kind, batch, key, val, true
}

// scanSegment replays a segment's committed batches into apply (data
// records in order, tombstones included). strict mode — sealed segments
// — fails on any malformed record or torn batch with a typed
// corruption error; tolerant mode — the active tail — stops there and
// returns the end of the last complete batch for truncation. Returns
// the data record count and the largest batch id seen.
func scanSegment(seg *segment, strict bool, apply func(kind byte, key uint64, off int64, val uint64)) (records, maxBatch uint64, end int64, err error) {
	data, err := readAll(seg)
	if err != nil {
		return 0, 0, 0, err
	}
	type pendingRec struct {
		kind byte
		key  uint64
		val  uint64
		off  int64
	}
	var pending []pendingRec
	var curBatch uint64
	corrupt := func(off int64, reason string) (uint64, uint64, int64, error) {
		if !strict {
			return records, maxBatch, end, nil
		}
		return 0, 0, 0, &pangolin.CorruptionError{
			OID:    pangolin.OID{Pool: uint64(seg.id), Off: uint64(off)},
			Reason: "logstore: sealed segment: " + reason,
		}
	}
	for off := int64(0); off < int64(len(data)); off += recSize {
		if off+recSize > int64(len(data)) {
			return corrupt(off, "torn record")
		}
		kind, batch, key, val, ok := decodeRecord(data[off : off+recSize])
		if !ok {
			return corrupt(off, "record crc mismatch")
		}
		if len(pending) == 0 {
			curBatch = batch
		} else if batch != curBatch {
			return corrupt(off, "batch id changed mid-batch")
		}
		switch kind {
		case recCommit:
			if key != uint64(len(pending)) {
				return corrupt(off, "commit record count mismatch")
			}
			for _, r := range pending {
				apply(r.kind, r.key, r.off, r.val)
			}
			records += uint64(len(pending))
			pending = pending[:0]
			if batch > maxBatch {
				maxBatch = batch
			}
			end = off + recSize
		default:
			pending = append(pending, pendingRec{kind: kind, key: key, val: val, off: off})
		}
	}
	if len(pending) > 0 {
		return corrupt(end, "batch without commit record")
	}
	return records, maxBatch, end, nil
}

// readAll reads a segment's current contents.
func readAll(seg *segment) ([]byte, error) {
	data := make([]byte, seg.size)
	if seg.size == 0 {
		return data, nil
	}
	if _, err := seg.f.ReadAt(data, 0); err != nil {
		return nil, fmt.Errorf("logstore: read segment %d: %w", seg.id, err)
	}
	return data, nil
}
