// Package logrec implements Pangolin's transaction logs (§2.3, §3.4):
// fixed "lanes" of provisioned log space, one per in-flight transaction,
// with overflow into chained extents for large transactions — the analog
// of libpmemobj logs overflowing from the Log region into the heap.
//
// Logs are streams of checksummed records. Record checksums are salted
// with the lane's use sequence number, so stale bytes from a lane's
// previous life can never parse as part of the current log. Every log
// write is optionally mirrored to a replica region ("Pangolin checksums
// transaction logs and replicates them", §3.1); recovery falls back to the
// replica when the primary fails validation or takes a media fault.
//
// Two disciplines share the machinery:
//
//   - redo (Pangolin): records accumulate, Commit persists the stream and
//     then sets the lane's committed flag with an atomic 8-byte store.
//     Recovery replays lanes whose flag is set; replay is idempotent.
//   - undo (pmemobj baseline): the lane is activated first, then each
//     snapshot record is persisted durably before its in-place write.
//     Recovery rolls back the valid record prefix of active lanes.
//
// Clearing order makes the committed flag authoritative from the primary
// copy; the replica is consulted only if the primary lane header is
// unreadable. For redo logs even that path is safe (replay is idempotent);
// for undo logs the stale-replica window requires a simultaneous poison
// and crash, the double-fault case §3.6 accepts as unrecoverable.
package logrec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"github.com/pangolin-go/pangolin/internal/csum"
	"github.com/pangolin-go/pangolin/internal/layout"
	"github.com/pangolin-go/pangolin/internal/nvm"
)

// Lane states (the 8-byte word at the lane base).
const (
	StateIdle          uint64 = 0
	StateRedoCommitted uint64 = 1
	StateUndoActive    uint64 = 2
)

// Record kinds are defined by the engine; logrec reserves 0 (end of
// stream) and jumpKind (continue in next extent).
const (
	endKind  uint16 = 0
	jumpKind uint16 = 0xFFFF
)

const (
	recHeaderSize = 16
	laneHdrState  = 0
	laneHdrSeq    = 8
	laneHdrExt    = 16 // first overflow extent index + 1; 0 = none
	laneHdrCsum   = 24 // Adler32 over seq and firstExt
	extHdrNext    = 0  // next extent index + 1; 0 = end of chain
	extHdrCsum    = 8  // Adler32 over next, salted with seq
)

// Record is one log record.
type Record struct {
	Kind    uint16
	Payload []byte
}

// RecoveredLog is an in-flight log found at pool open.
type RecoveredLog struct {
	Lane    uint64
	State   uint64 // StateRedoCommitted or StateUndoActive
	Seq     uint64
	Records []Record // for undo logs: the valid prefix, in append order
}

// Manager owns the lane and overflow-extent regions of a pool.
type Manager struct {
	dev       *nvm.Device
	geo       layout.Geometry
	replicate bool
	// mirror, when set, receives a copy of every log write at the same
	// offsets: the whole-pool replication of Pmemobj-R, which mirrors
	// logs as well as data (libpmemobj poolset replicas duplicate the
	// entire pool).
	mirror *nvm.Device

	mu        sync.Mutex
	freeLanes []uint64
	freeExts  []uint64
	seq       uint64
	// laneSpans[l] is lane l's span list, emptied, kept between the
	// transactions that hold the lane in turn so that a commit's records
	// do not regrow it every time. Only the lane's holder touches it.
	laneSpans [][]span

	pending []RecoveredLog // discovered at open, drained by Recover
}

// SetMirror directs a copy of every subsequent log write to a replica
// pool device (Pmemobj-R whole-pool mirroring).
func (m *Manager) SetMirror(dev *nvm.Device) { m.mirror = dev }

// NewManager scans the lane region of a pool, parses any in-flight logs
// (drain them via Recover before starting transactions), and builds the
// volatile lane/extent free lists. replicate selects log replication
// (Table 2 "+ML").
func NewManager(dev *nvm.Device, geo layout.Geometry, replicate bool) (*Manager, error) {
	m := &Manager{dev: dev, geo: geo, replicate: replicate, laneSpans: make([][]span, geo.NumLanes)}
	usedExts := make(map[uint64]bool)
	var maxSeq uint64
	for l := uint64(0); l < geo.NumLanes; l++ {
		hdr, err := m.readLaneHeader(l)
		if err != nil {
			return nil, fmt.Errorf("logrec: lane %d header unreadable in both copies: %w", l, err)
		}
		if hdr.seq > maxSeq {
			maxSeq = hdr.seq
		}
		if hdr.state != StateRedoCommitted && hdr.state != StateUndoActive {
			m.freeLanes = append(m.freeLanes, l)
			continue
		}
		recs, exts, err := m.parseStream(l, hdr)
		if err != nil {
			if hdr.state == StateRedoCommitted {
				// A committed redo log must be fully intact: it was
				// persisted and replicated before the flag was set.
				return nil, fmt.Errorf("logrec: committed redo log in lane %d unreadable: %w", l, err)
			}
			// Undo logs are valid-prefix by construction; parseStream
			// already returned what it could, so err here means even
			// the stream head was unreadable in both copies.
			return nil, fmt.Errorf("logrec: active undo log in lane %d unreadable: %w", l, err)
		}
		for _, e := range exts {
			usedExts[e] = true
		}
		m.pending = append(m.pending, RecoveredLog{Lane: l, State: hdr.state, Seq: hdr.seq, Records: recs})
	}
	for e := uint64(0); e < geo.OverflowExts; e++ {
		if !usedExts[e] {
			m.freeExts = append(m.freeExts, e)
		}
	}
	m.seq = maxSeq + 1
	return m, nil
}

// Recover returns the in-flight logs found at open: committed redo logs to
// replay and active undo logs to roll back. The engine must Clear each
// lane after processing. Recover may be called once; later calls return
// nil.
func (m *Manager) Recover() []RecoveredLog {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.pending
	m.pending = nil
	return p
}

// MaxPayload returns the largest record payload the log geometry supports.
func (m *Manager) MaxPayload() uint64 {
	lane := m.geo.LaneSize - layout.LaneHeaderSize
	n := lane
	if m.geo.OverflowExts > 0 {
		ext := m.geo.OverflowExtSize - layout.OverflowExtHeader
		n = min(n, ext)
	}
	// Room for the record header plus a trailing jump/end marker.
	return n - 2*recHeaderSize
}

// FreeLanes reports the number of available lanes (test/stats helper).
func (m *Manager) FreeLanes() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.freeLanes)
}

type laneHeader struct {
	state    uint64
	seq      uint64
	firstExt uint64 // +1; 0 = none
}

func encodeLaneHeader(h laneHeader) []byte {
	b := make([]byte, layout.LaneHeaderSize)
	le := binary.LittleEndian
	le.PutUint64(b[laneHdrState:], h.state)
	le.PutUint64(b[laneHdrSeq:], h.seq)
	le.PutUint64(b[laneHdrExt:], h.firstExt)
	le.PutUint32(b[laneHdrCsum:], csum.Adler32(b[laneHdrSeq:laneHdrSeq+16]))
	return b
}

func decodeLaneHeader(b []byte) (laneHeader, error) {
	le := binary.LittleEndian
	if le.Uint32(b[laneHdrCsum:]) != csum.Adler32(b[laneHdrSeq:laneHdrSeq+16]) {
		return laneHeader{}, errors.New("lane header checksum mismatch")
	}
	return laneHeader{
		state:    le.Uint64(b[laneHdrState:]),
		seq:      le.Uint64(b[laneHdrSeq:]),
		firstExt: le.Uint64(b[laneHdrExt:]),
	}, nil
}

// readLaneHeader reads a lane header, falling back to the replica if the
// primary is poisoned or corrupt.
func (m *Manager) readLaneHeader(l uint64) (laneHeader, error) {
	read := func(off uint64) (laneHeader, error) {
		b := make([]byte, layout.LaneHeaderSize)
		if err := m.dev.ReadAt(b, off); err != nil {
			return laneHeader{}, err
		}
		return decodeLaneHeader(b)
	}
	h, err := read(m.geo.LaneOff(l))
	if err == nil {
		return h, nil
	}
	if !m.replicate {
		// Without log replication the replica region is stale; a lost
		// primary lane header is unrecoverable, which is exactly the
		// exposure the +ML mode removes.
		return h, err
	}
	return read(m.geo.LaneReplicaOff(l))
}

// Format writes valid idle headers for every lane (both copies). Pool
// creation must call it once: an all-zero lane header does not checksum.
func Format(dev *nvm.Device, geo layout.Geometry) {
	img := encodeLaneHeader(laneHeader{state: StateIdle, seq: 0})
	for l := uint64(0); l < geo.NumLanes; l++ {
		dev.WriteAt(geo.LaneOff(l), img)
		dev.WriteAt(geo.LaneReplicaOff(l), img)
	}
	dev.Persist(geo.LanesOff(), 2*geo.NumLanes*geo.LaneSize)
}
