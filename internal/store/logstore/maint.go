package logstore

import (
	"fmt"
	"os"

	"github.com/pangolin-go/pangolin"
	"github.com/pangolin-go/pangolin/internal/durable"
	"github.com/pangolin-go/pangolin/internal/store"
)

// mergeJob is an in-progress compaction of the oldest sealed segment:
// a bounded scan cursor copying still-live records to the tail.
type mergeJob struct {
	segID int
	off   int64
}

// recordsPerStep bounds one ScrubStep's work, reusing the pangolin
// scrubber's per-step object budget.
func (s *Store) recordsPerStep() int {
	if s.scrub.MaxObjectsPerStep <= 0 {
		return 64
	}
	return s.scrub.MaxObjectsPerStep
}

// ScrubStep implements store.Store: the maintenance scheduler's tick
// unit. When compaction is due (or already underway) the step advances
// the merge; otherwise it steps a background scrub pass (NewScrubPass),
// the log engine's detect-only analog of the pangolin scrubber, and
// starts a new pass once that one completes or fails. done reports a
// completed pass (merge steps are housekeeping, never "a pass").
func (s *Store) ScrubStep() (pangolin.ScrubReport, bool, error) {
	if s.rotateErr != nil {
		// A rotation deferred out of Apply (which must not report errors
		// for batches it did apply) is retried here, surfacing repeated
		// failure through the maintenance error path instead.
		if err := s.retryRotate(); err != nil {
			return pangolin.ScrubReport{}, false, err
		}
	}
	if s.crashPending {
		// The pending crash image needs every pre-crash segment file
		// intact, so an in-flight merge must not keep running: completing
		// it would delete the oldest segment while the copied-forward
		// records sit past the crash cut, losing committed data on the
		// simulated reopen. Drop the job — already-copied records are dead
		// weight in the old segment, so the post-Save restart just rescans
		// past them.
		s.merge = nil
	} else if s.merge != nil || s.mergeDue() {
		rep, err := s.mergeStep()
		return rep, false, err
	}
	if s.verify == nil {
		s.verify = s.NewScrubPass()
	}
	rep, done, err := s.verify.Step()
	if done || err != nil {
		s.verify = nil
	}
	return rep, done, err
}

// mergeDue reports whether the oldest sealed segment has enough dead
// weight (half its records, or no live ones at all) to be worth
// rewriting. Suspended while a crash image is pending: compaction
// deletes files the image still needs. A quarantined oldest segment —
// one where a previous merge met corruption — parks compaction
// entirely: retrying would abort at the same record every tick and
// starve the verify sweep, and merging a *newer* segment instead is
// unsafe (dropping its tombstones could resurrect older puts on
// recovery).
func (s *Store) mergeDue() bool {
	if s.crashPending || len(s.segs) < 2 {
		return false
	}
	oldest := s.segs[0]
	if s.quarantined[oldest.id] {
		return false
	}
	return oldest.live == 0 || oldest.live*2 <= oldest.records
}

// mergeStep advances compaction by up to recordsPerStep records: each
// still-live put (the index points at that exact record) is re-appended
// at the tail as a fresh committed batch, which atomically moves the
// index entry; dead records and tombstones are simply passed over — the
// oldest segment has nothing before it that a tombstone could
// resurrect. When the scan completes the segment and its hint are
// deleted. A CRC mismatch aborts the job with a typed corruption error
// and quarantines the segment so the merge is not retried every tick:
// with no redundancy there is nothing to rebuild the record from, and
// deleting the segment would turn detected corruption into silent loss.
func (s *Store) mergeStep() (pangolin.ScrubReport, error) {
	var rep pangolin.ScrubReport
	if s.merge == nil {
		s.merge = &mergeJob{segID: s.segs[0].id}
	}
	job := s.merge
	seg := s.segByID(job.segID)
	if seg == nil || seg == s.active() {
		// The world changed under the job (the segment went away, or
		// everything before the tail merged); drop it.
		s.merge = nil
		return rep, nil
	}
	var liveOps []store.Op
	for job.off < seg.size && rep.Objects < s.recordsPerStep() {
		var rec [recSize]byte
		if _, err := seg.f.ReadAt(rec[:], job.off); err != nil {
			s.merge = nil
			return rep, fmt.Errorf("logstore: merge segment %d: %w", seg.id, err)
		}
		kind, _, key, _, ok := decodeRecord(rec[:])
		if !ok {
			rep.BadObjects++
			rep.Unrecovered++
			s.merge = nil
			if s.quarantined == nil {
				s.quarantined = make(map[int]bool)
			}
			s.quarantined[seg.id] = true
			return rep, &pangolin.CorruptionError{
				OID:    pangolin.OID{Pool: uint64(seg.id), Off: uint64(job.off)},
				Reason: "logstore: merge found a corrupt record",
			}
		}
		if kind == recPut {
			if e, live := s.idx[key]; live && e.seg == seg.id && e.off == job.off {
				liveOps = append(liveOps, store.Op{Kind: store.OpPut, K: key, V: e.val})
			}
			rep.Objects++
		} else if kind == recDel {
			rep.Objects++
		}
		job.off += recSize
	}
	if len(liveOps) > 0 {
		// Copy-forward rewrites live records with their current values —
		// no logical state changes — so the version buffer must not
		// treat it as an overwrite of pinned bytes.
		s.merging = true
		_, err := s.Apply(liveOps)
		s.merging = false
		if err != nil {
			s.merge = nil
			return rep, fmt.Errorf("logstore: merge copy-forward: %w", err)
		}
		s.mergedRecords += uint64(len(liveOps))
	}
	if job.off < seg.size {
		return rep, nil // more records next step
	}
	// Scan complete; every live record has been copied forward, so the
	// segment is pure dead weight.
	s.merge = nil
	seg.f.Close()
	if err := os.Remove(segPath(s.dir, seg.id)); err != nil {
		return rep, fmt.Errorf("logstore: drop merged segment %d: %w", seg.id, err)
	}
	os.Remove(hintPath(s.dir, seg.id)) // best-effort
	for i, sg := range s.segs {
		if sg == seg {
			s.segs = append(s.segs[:i], s.segs[i+1:]...)
			break
		}
	}
	s.compactions++
	return rep, durable.SyncDir(s.dir)
}

// scrubPass is one full CRC sweep (store.ScrubPass): the segment list
// is planned at pass start and swept with an independent cursor, so
// client batches and even merges can interleave between steps (a
// segment deleted mid-pass is skipped; records appended after the plan
// are the next pass's work).
type scrubPass struct {
	s    *Store
	plan []plannedSeg
	pos  int
	off  int64
}

// plannedSeg is one segment of a pass's plan and its size at pass start.
type plannedSeg struct {
	id   int
	size int64
}

// NewScrubPass starts a CRC-verify pass over the current segments.
func (s *Store) NewScrubPass() store.ScrubPass {
	p := &scrubPass{s: s, plan: make([]plannedSeg, len(s.segs))}
	for i, sg := range s.segs {
		p.plan[i] = plannedSeg{id: sg.id, size: sg.size}
	}
	return p
}

// ChecksumsVerified is always true: every record is
// CRC-framed, so a completed pass really did verify the whole log.
func (s *Store) ChecksumsVerified() bool { return true }

// Step CRC-checks up to recordsPerStep records. Mismatches are counted
// (BadObjects/Unrecovered: detect-only, nothing to repair from) rather
// than erroring, as the pangolin scrubber counts and keeps sweeping. It
// looks each segment up once per step it reaches, not per record: a
// merge may delete a segment between steps, never within one.
func (p *scrubPass) Step() (pangolin.ScrubReport, bool, error) {
	rep := pangolin.ScrubReport{ChecksumsVerified: true}
	var seg *segment
	var end int64
	for rep.Objects < p.s.recordsPerStep() {
		if p.pos >= len(p.plan) {
			return rep, true, nil
		}
		if seg == nil {
			pl := p.plan[p.pos]
			if seg = p.s.segByID(pl.id); seg != nil {
				end = min(pl.size, seg.size)
			}
		}
		if seg == nil || p.off+recSize > end {
			p.pos++
			p.off = 0
			seg = nil
			continue
		}
		var rec [recSize]byte
		if _, err := seg.f.ReadAt(rec[:], p.off); err != nil {
			return rep, false, fmt.Errorf("logstore: scrub segment %d: %w", seg.id, err)
		}
		kind, _, _, _, ok := decodeRecord(rec[:])
		if !ok {
			rep.BadObjects++
			rep.Unrecovered++
			rep.Objects++
		} else if kind != recCommit {
			rep.Objects++
		}
		p.off += recSize
	}
	return rep, false, nil
}
