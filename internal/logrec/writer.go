package logrec

import (
	"encoding/binary"
	"fmt"

	"github.com/pangolin-go/pangolin/internal/csum"
	"github.com/pangolin-go/pangolin/internal/layout"
)

// Writer appends records to an acquired lane. A Writer is used by one
// transaction (one goroutine) at a time.
type Writer struct {
	m    *Manager
	lane uint64
	seq  uint64

	exts   []uint64 // overflow chain, in order
	region int      // -1: lane payload; ≥0: index into exts
	off    uint64   // next write offset within the current region payload
	spans  []span   // primary byte spans written since the last persist
	active bool     // undo: lane flag already set
	done   bool
}

type span struct{ off, n uint64 }

// Begin acquires a free lane and prepares it with a fresh sequence number.
// It returns an error if all lanes are busy (the engine sizes lanes to
// concurrency, so this signals misuse rather than load).
func (m *Manager) Begin() (*Writer, error) {
	m.mu.Lock()
	if len(m.pending) > 0 {
		m.mu.Unlock()
		return nil, fmt.Errorf("logrec: recovery pending; drain Recover first")
	}
	if len(m.freeLanes) == 0 {
		m.mu.Unlock()
		return nil, fmt.Errorf("logrec: no free lanes (%d in flight)", m.geo.NumLanes)
	}
	lane := m.freeLanes[len(m.freeLanes)-1]
	m.freeLanes = m.freeLanes[:len(m.freeLanes)-1]
	m.seq++
	seq := m.seq
	spans := m.laneSpans[lane]
	m.mu.Unlock()

	w := &Writer{m: m, lane: lane, seq: seq, region: -1, spans: spans}
	// Prepare the header: idle state, new seq, no extents. Persist before
	// any record so stale records from the lane's previous life can never
	// validate against the new seq.
	w.writeHeader(laneHeader{state: StateIdle, seq: seq})
	return w, nil
}

func (w *Writer) writeHeader(h laneHeader) {
	img := encodeLaneHeader(h)
	d := w.m.dev
	d.WriteAt(w.m.geo.LaneOff(w.lane), img)
	d.Persist(w.m.geo.LaneOff(w.lane), uint64(len(img)))
	if w.m.replicate {
		d.WriteAt(w.m.geo.LaneReplicaOff(w.lane), img)
		d.Persist(w.m.geo.LaneReplicaOff(w.lane), uint64(len(img)))
	}
	if mr := w.m.mirror; mr != nil {
		mr.WriteAt(w.m.geo.LaneOff(w.lane), img)
		mr.Persist(w.m.geo.LaneOff(w.lane), uint64(len(img)))
	}
}

// setState atomically updates the lane state word. Order: replica first
// for commits (so a committed primary implies a committed replica), primary
// first for clears (so recovery's primary-first read never resurrects a
// cleared log).
func (w *Writer) setState(s uint64, replicaFirst bool) {
	d := w.m.dev
	prim := w.m.geo.LaneOff(w.lane) + laneHdrState
	repl := w.m.geo.LaneReplicaOff(w.lane) + laneHdrState
	if w.m.replicate && replicaFirst {
		d.Store64(repl, s)
		d.Persist(repl, 8)
	}
	d.Store64(prim, s)
	d.Persist(prim, 8)
	if w.m.replicate && !replicaFirst {
		d.Store64(repl, s)
		d.Persist(repl, 8)
	}
	if mr := w.m.mirror; mr != nil {
		mr.Store64(prim, s)
		mr.Persist(prim, 8)
	}
}

// regionBase returns the pool offset and payload size of the current
// region (primary copy).
func (w *Writer) regionBase(region int) (base, payloadOff, size uint64) {
	if region < 0 {
		return w.m.geo.LaneOff(w.lane), layout.LaneHeaderSize, w.m.geo.LaneSize
	}
	return w.m.geo.OverflowExtOff(w.exts[region]), layout.OverflowExtHeader, w.m.geo.OverflowExtSize
}

func (w *Writer) replicaBase(region int) uint64 {
	if region < 0 {
		return w.m.geo.LaneReplicaOff(w.lane)
	}
	return w.m.geo.OverflowExtReplicaOff(w.exts[region])
}

// recordChecksum salts the record checksum with the lane sequence so bytes
// from earlier lane uses never validate. The payload is head||body.
func recordChecksum(seq uint64, kind uint16, head, body []byte) uint32 {
	var hdr [10]byte
	binary.LittleEndian.PutUint64(hdr[0:], seq)
	binary.LittleEndian.PutUint16(hdr[8:], kind)
	return csum.Continue(csum.Continue(csum.Adler32(hdr[:]), head), body)
}

// put stores bytes at the current region offset (primary + replica) and
// advances it, returning the primary offset written.
func (w *Writer) put(b []byte) uint64 {
	base, payloadOff, _ := w.regionBase(w.region)
	off := base + payloadOff + w.off
	w.m.dev.WriteAt(off, b)
	if w.m.replicate {
		w.m.dev.WriteAt(w.replicaBase(w.region)+payloadOff+w.off, b)
	}
	if mr := w.m.mirror; mr != nil {
		mr.WriteAt(off, b)
	}
	w.off += uint64(len(b))
	return off
}

// write is put plus a span for deferred persistence.
func (w *Writer) write(b []byte) {
	off := w.put(b)
	w.spans = append(w.spans, span{off: off, n: uint64(len(b))})
}

// roomLeft returns the free payload bytes in the current region, keeping
// space for a trailing jump or end marker.
func (w *Writer) roomLeft() uint64 {
	_, payloadOff, size := w.regionBase(w.region)
	used := payloadOff + w.off
	return size - used - recHeaderSize
}

// Append adds a record. Records too large for the remaining region space
// spill into an overflow extent; ErrLogFull reports overflow exhaustion.
// The record is written but not persisted; call persistSpans via Commit
// (redo) or use AppendDurable (undo).
func (w *Writer) Append(kind uint16, payload []byte) error {
	return w.AppendVec(kind, payload, nil)
}

// AppendVec is Append with the payload given as head||body, so a caller
// prefixing bulk data with a small header need not assemble the two in a
// scratch buffer. The log bytes and persistence work are those of Append
// on the concatenation.
func (w *Writer) AppendVec(kind uint16, head, body []byte) error {
	if kind == endKind || kind == jumpKind {
		return fmt.Errorf("logrec: record kind %#x is reserved", kind)
	}
	n := uint64(len(head) + len(body))
	if n > w.m.MaxPayload() {
		return fmt.Errorf("logrec: payload %d exceeds max %d", n, w.m.MaxPayload())
	}
	need := recHeaderSize + n
	if need%8 != 0 {
		need += 8 - need%8
	}
	if w.roomLeft() < need {
		if err := w.spill(); err != nil {
			return err
		}
	}
	var hdr [recHeaderSize]byte
	le := binary.LittleEndian
	le.PutUint16(hdr[0:], kind)
	le.PutUint32(hdr[4:], uint32(n))
	le.PutUint32(hdr[8:], recordChecksum(w.seq, kind, head, body))
	w.write(hdr[:])
	off := w.put(head)
	if len(body) > 0 {
		w.put(body)
	}
	w.spans = append(w.spans, span{off: off, n: n})
	if pad := w.off % 8; pad != 0 {
		w.off += 8 - pad
	}
	return nil
}

// ErrLogFull reports exhausted log space (lane plus all overflow extents).
var ErrLogFull = fmt.Errorf("logrec: transaction log full")

// spill terminates the current region with a jump marker and chains a
// fresh overflow extent.
func (w *Writer) spill() error {
	m := w.m
	m.mu.Lock()
	if len(m.freeExts) == 0 {
		m.mu.Unlock()
		return ErrLogFull
	}
	ext := m.freeExts[len(m.freeExts)-1]
	m.freeExts = m.freeExts[:len(m.freeExts)-1]
	m.mu.Unlock()

	// Jump marker in the current region.
	jmp := make([]byte, recHeaderSize)
	le := binary.LittleEndian
	le.PutUint16(jmp[0:], jumpKind)
	le.PutUint32(jmp[8:], recordChecksum(w.seq, jumpKind, nil, nil))
	w.write(jmp)

	// Chain pointer: lane header firstExt or previous extent's next.
	if w.region < 0 {
		h := laneHeader{state: StateIdle, seq: w.seq, firstExt: ext + 1}
		img := encodeLaneHeader(h)
		// Do not clobber the state word (undo logs are already active):
		// write only seq/ext/csum bytes.
		d := m.dev
		d.WriteAt(m.geo.LaneOff(w.lane)+laneHdrSeq, img[laneHdrSeq:laneHdrCsum+4])
		w.spans = append(w.spans, span{off: m.geo.LaneOff(w.lane) + laneHdrSeq, n: 24})
		if m.replicate {
			d.WriteAt(m.geo.LaneReplicaOff(w.lane)+laneHdrSeq, img[laneHdrSeq:laneHdrCsum+4])
		}
		if mr := m.mirror; mr != nil {
			mr.WriteAt(m.geo.LaneOff(w.lane)+laneHdrSeq, img[laneHdrSeq:laneHdrCsum+4])
		}
	} else {
		prev := w.exts[w.region]
		w.writeExtHeader(prev, ext+1)
	}
	// Fresh extent header: end of chain.
	w.writeExtHeader(ext, 0)
	w.exts = append(w.exts, ext)
	w.region = len(w.exts) - 1
	w.off = 0
	return nil
}

func (w *Writer) writeExtHeader(ext, next uint64) {
	b := make([]byte, layout.OverflowExtHeader)
	le := binary.LittleEndian
	le.PutUint64(b[extHdrNext:], next)
	var salt [16]byte
	le.PutUint64(salt[0:], w.seq)
	le.PutUint64(salt[8:], next)
	le.PutUint32(b[extHdrCsum:], csum.Adler32(salt[:]))
	off := w.m.geo.OverflowExtOff(ext)
	w.m.dev.WriteAt(off, b)
	w.spans = append(w.spans, span{off: off, n: uint64(len(b))})
	if w.m.replicate {
		w.m.dev.WriteAt(w.m.geo.OverflowExtReplicaOff(ext), b)
	}
	if mr := w.m.mirror; mr != nil {
		mr.WriteAt(off, b)
	}
}

// persistSpans flushes every span written since the last persist (primary
// and, when replicating, the mirrored replica bytes), with a single fence.
func (w *Writer) persistSpans() {
	d := w.m.dev
	for _, s := range w.spans {
		d.Flush(s.off, s.n)
	}
	if w.m.replicate {
		delta := w.replicaDelta()
		for _, s := range w.spans {
			d.Flush(s.off+delta(s.off), s.n)
		}
	}
	d.Fence()
	if mr := w.m.mirror; mr != nil {
		for _, s := range w.spans {
			mr.Flush(s.off, s.n)
		}
		mr.Fence()
	}
	w.spans = w.spans[:0]
}

// replicaDelta returns a function mapping a primary offset to the offset
// delta of its replica copy (lane vs. extent regions differ).
func (w *Writer) replicaDelta() func(uint64) uint64 {
	g := w.m.geo
	laneDelta := g.LanesReplicaOff() - g.LanesOff()
	extDelta := g.OverflowReplicaOff() - g.OverflowOff()
	return func(off uint64) uint64 {
		if off >= g.OverflowOff() && off < g.OverflowReplicaOff() {
			return extDelta
		}
		return laneDelta
	}
}

// AppendDurable appends a record and persists it (and its chain metadata)
// before returning — the undo-log discipline: the snapshot must be durable
// before its in-place write (§2.3).
func (w *Writer) AppendDurable(kind uint16, payload []byte) error {
	if err := w.Append(kind, payload); err != nil {
		return err
	}
	w.persistSpans()
	return nil
}

// Activate marks the lane as an active undo log. Call before the first
// AppendDurable.
func (w *Writer) Activate() {
	w.setState(StateUndoActive, false)
	w.active = true
}

// Commit persists the accumulated redo records and sets the committed
// flag: the transaction's durability point (§3.4).
func (w *Writer) Commit() {
	w.persistSpans()
	w.setState(StateRedoCommitted, true)
}

// Clear returns the lane to idle and releases it and its extents for
// reuse. For redo logs call after applying; for undo logs call at commit
// (discarding the rollback log) or after rolling back.
func (w *Writer) Clear() {
	if w.done {
		return
	}
	w.setState(StateIdle, false)
	w.m.release(w.lane, w.exts, w.spans)
	w.spans = nil // the lane's next holder owns the list now
	w.done = true
}

func (m *Manager) release(lane uint64, exts []uint64, spans []span) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.freeLanes = append(m.freeLanes, lane)
	m.freeExts = append(m.freeExts, exts...)
	m.laneSpans[lane] = spans[:0]
}

// ClearRecovered clears a lane returned by Recover after the engine has
// replayed or rolled it back, releasing the lane and its extent chain.
func (m *Manager) ClearRecovered(log RecoveredLog) error {
	hdr, err := m.readLaneHeader(log.Lane)
	if err != nil {
		return err
	}
	var exts []uint64
	next := hdr.firstExt
	for next != 0 {
		e := next - 1
		exts = append(exts, e)
		n, err := m.readExtNext(e, hdr.seq)
		if err != nil {
			return err
		}
		next = n
	}
	w := &Writer{m: m, lane: log.Lane, seq: hdr.seq, exts: exts}
	w.Clear()
	return nil
}
