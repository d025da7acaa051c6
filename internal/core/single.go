package core

import (
	"bytes"
	"fmt"

	"github.com/pangolin-go/pangolin/internal/layout"
	"github.com/pangolin-go/pangolin/internal/mbuf"
)

// OpenSingle creates a standalone micro-buffer for an object outside any
// transaction — the paper's pgl_open (§3.2, Listing 2). The object's
// integrity is verified (and restored if needed) exactly as at
// transactional open. It returns the buffer and a copy of the image it
// verified, which CommitSingle diffs against. The buffer is later
// committed atomically with CommitSingle or simply dropped.
func (e *Engine) OpenSingle(oid layout.OID) (*mbuf.Buf, []byte, error) {
	if e.closed.Load() {
		return nil, nil, ErrClosed
	}
	if !e.mode.MicroBuffered() {
		return nil, nil, fmt.Errorf("core: OpenSingle requires a micro-buffered mode, not %v", e.mode)
	}
	b, err := e.loadBuf(oid, nil)
	if err != nil {
		return nil, nil, err
	}
	e.stats.mbufAdd(int64(b.Footprint()))
	return b, bytes.Clone(b.Image()), nil
}

// CommitSingle atomically commits a buffer from OpenSingle — the paper's
// pgl_commit: it starts a transaction, determines the modified ranges by
// diffing the buffer against orig, the image OpenSingle verified (the
// single-object API has no AddRange), and runs the normal commit protocol
// with orig's bytes as the ranges' first images. NVMM is not read back,
// so a scribble since OpenSingle is neither mistaken for a modification
// nor folded into parity. This keeps the simple atomic-style programming
// model while supporting updates beyond 8 bytes (§3.2).
func (e *Engine) CommitSingle(b *mbuf.Buf, orig []byte) error {
	defer e.stats.mbufAdd(-int64(b.Footprint()))
	if err := b.CheckCanaries(); err != nil {
		return err
	}
	tx, err := e.Begin()
	if err != nil {
		return err
	}
	img := b.Image()
	// Diff at 8-byte granularity, skipping the header (the commit path
	// owns the checksum field).
	const gran = 8
	size := b.Size()
	i := uint64(layout.ObjHeaderSize)
	for i < size {
		end := min(i+gran, size)
		if bytes.Equal(orig[i:end], img[i:end]) {
			i = end
			continue
		}
		// Extend the modified run until granules match again.
		j := end
		for j < size {
			je := min(j+gran, size)
			if bytes.Equal(orig[j:je], img[j:je]) {
				break
			}
			j = je
		}
		tx.statModBytes += b.MarkModified(i, j-i, orig, tx.bufs.Arena())
		i = j
	}
	tx.bufs.Insert(b)
	e.stats.mbufAdd(int64(b.Footprint())) // table ownership (released at commit)
	tx.statObjs[b.OID.Off] = true
	return tx.Commit()
}
