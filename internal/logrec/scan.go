package logrec

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/pangolin-go/pangolin/internal/csum"
	"github.com/pangolin-go/pangolin/internal/layout"
)

// parseStream walks a lane's record stream (lane payload plus overflow
// chain). For committed redo logs the stream must parse completely from
// the primary or, failing that, the replica. For active undo logs the
// valid prefix is the answer; both copies are scanned and the longer
// prefix wins (every persisted snapshot is needed for rollback).
func (m *Manager) parseStream(lane uint64, hdr laneHeader) ([]Record, []uint64, error) {
	prim, extsP, errP := m.scanCopy(lane, hdr, false)
	if hdr.state == StateRedoCommitted {
		if errP == nil {
			return prim, extsP, nil
		}
		if !m.replicate {
			return nil, nil, errP
		}
		repl, extsR, errR := m.scanCopy(lane, hdr, true)
		if errR != nil {
			return nil, nil, fmt.Errorf("primary: %w; replica: %w", errP, errR)
		}
		return repl, extsR, nil
	}
	// Undo: incomplete streams are expected; errors only matter if the
	// stream head itself was unreadable.
	if !m.replicate {
		return prim, extsP, errP
	}
	repl, extsR, errR := m.scanCopy(lane, hdr, true)
	switch {
	case errP != nil && errR != nil:
		return nil, nil, fmt.Errorf("primary: %w; replica: %w", errP, errR)
	case errP != nil:
		return repl, extsR, nil
	case errR != nil:
		return prim, extsP, nil
	case len(repl) > len(prim):
		return repl, extsR, nil
	default:
		return prim, extsP, nil
	}
}

// scanCopy parses one copy (primary or replica) of a lane's stream.
// The returned error reports an unreadable region (poison) or a broken
// chain; an ordinary invalid record simply ends the stream.
func (m *Manager) scanCopy(lane uint64, hdr laneHeader, replica bool) ([]Record, []uint64, error) {
	var recs []Record
	var exts []uint64
	seen := make(map[uint64]bool)

	region := -1
	nextExt := hdr.firstExt
	for {
		var base, payloadOff, size uint64
		if region < 0 {
			base, payloadOff, size = m.geo.LaneOff(lane), layout.LaneHeaderSize, m.geo.LaneSize
			if replica {
				base = m.geo.LaneReplicaOff(lane)
			}
		} else {
			e := exts[region]
			base, payloadOff, size = m.geo.OverflowExtOff(e), layout.OverflowExtHeader, m.geo.OverflowExtSize
			if replica {
				base = m.geo.OverflowExtReplicaOff(e)
			}
		}
		buf := make([]byte, size-payloadOff)
		if err := m.dev.ReadAt(buf, base+payloadOff); err != nil {
			return recs, exts, fmt.Errorf("logrec: reading log region: %w", err)
		}
		jump, rs := scanRegion(hdr.seq, buf)
		recs = append(recs, rs...)
		if !jump {
			return recs, exts, nil
		}
		// Follow the chain.
		if nextExt == 0 {
			return recs, exts, errors.New("logrec: jump marker with no chained extent")
		}
		e := nextExt - 1
		if e >= m.geo.OverflowExts || seen[e] {
			return recs, exts, fmt.Errorf("logrec: corrupt extent chain (ext %d)", e)
		}
		seen[e] = true
		exts = append(exts, e)
		region = len(exts) - 1
		n, err := m.readExtNextCopy(e, hdr.seq, replica)
		if err != nil {
			return recs, exts, err
		}
		nextExt = n
	}
}

// scanRegion parses records from one region's payload. It returns the
// records found and whether a validated jump marker ended the region.
func scanRegion(seq uint64, buf []byte) (jump bool, recs []Record) {
	off := uint64(0)
	for off+recHeaderSize <= uint64(len(buf)) {
		le := binary.LittleEndian
		kind := le.Uint16(buf[off:])
		n := uint64(le.Uint32(buf[off+4:]))
		sum := le.Uint32(buf[off+8:])
		if kind == jumpKind {
			if sum == recordChecksum(seq, jumpKind, nil, nil) && n == 0 {
				return true, recs
			}
			return false, recs
		}
		if kind == endKind || off+recHeaderSize+n > uint64(len(buf)) {
			return false, recs
		}
		payload := buf[off+recHeaderSize : off+recHeaderSize+n]
		if sum != recordChecksum(seq, kind, payload, nil) {
			return false, recs
		}
		recs = append(recs, Record{Kind: kind, Payload: append([]byte(nil), payload...)})
		off += recHeaderSize + n
		if pad := off % 8; pad != 0 {
			off += 8 - pad
		}
	}
	return false, recs
}

// readExtNext reads and validates an extent's chain pointer (primary copy,
// replica fallback when replicating).
func (m *Manager) readExtNext(e, seq uint64) (uint64, error) {
	n, err := m.readExtNextCopy(e, seq, false)
	if err != nil && m.replicate {
		return m.readExtNextCopy(e, seq, true)
	}
	return n, err
}

func (m *Manager) readExtNextCopy(e, seq uint64, replica bool) (uint64, error) {
	off := m.geo.OverflowExtOff(e)
	if replica {
		off = m.geo.OverflowExtReplicaOff(e)
	}
	b := make([]byte, layout.OverflowExtHeader)
	if err := m.dev.ReadAt(b, off); err != nil {
		return 0, err
	}
	le := binary.LittleEndian
	next := le.Uint64(b[extHdrNext:])
	var salt [16]byte
	le.PutUint64(salt[0:], seq)
	le.PutUint64(salt[8:], next)
	if le.Uint32(b[extHdrCsum:]) != csum.Adler32(salt[:]) {
		return 0, fmt.Errorf("logrec: extent %d header checksum mismatch", e)
	}
	return next, nil
}
