package core

import (
	"fmt"

	"github.com/pangolin-go/pangolin/internal/layout"
	"github.com/pangolin-go/pangolin/internal/mbuf"
)

// OpenSingle creates a standalone micro-buffer for an object outside any
// transaction — the paper's pgl_open (§3.2, Listing 2). The object's
// integrity is verified (and restored if needed) exactly as at
// transactional open. The buffer is later committed atomically with
// CommitSingle or simply dropped.
func (e *Engine) OpenSingle(oid layout.OID) (*mbuf.Buf, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if !e.mode.MicroBuffered() {
		return nil, fmt.Errorf("core: OpenSingle requires a micro-buffered mode, not %v", e.mode)
	}
	b, err := e.loadBuf(oid)
	if err != nil {
		return nil, err
	}
	e.stats.mbufAdd(int64(b.Footprint()))
	return b, nil
}

// CommitSingle atomically commits a buffer from OpenSingle — the paper's
// pgl_commit: it starts a transaction, determines the modified ranges by
// diffing the buffer against NVMM (the single-object API has no
// AddRange), and runs the normal commit protocol. This keeps the simple
// atomic-style programming model while supporting updates beyond 8 bytes
// (§3.2).
func (e *Engine) CommitSingle(b *mbuf.Buf) error {
	defer e.stats.mbufAdd(-int64(b.Footprint()))
	if err := b.CheckCanaries(); err != nil {
		return err
	}
	old := make([]byte, b.Size())
	if err := e.readRepairing(old, b.OID.HeaderOff()); err != nil {
		return err
	}
	img := b.Image()
	// Diff at 8-byte granularity, skipping the header (the commit path
	// owns the checksum field).
	const gran = 8
	size := b.Size()
	var modified uint64
	i := uint64(layout.ObjHeaderSize)
	for i < size {
		end := min(i+gran, size)
		if bytesEqual(old[i:end], img[i:end]) {
			i = end
			continue
		}
		// Extend the modified run until granules match again.
		j := end
		for j < size {
			je := min(j+gran, size)
			if bytesEqual(old[j:je], img[j:je]) {
				break
			}
			j = je
		}
		modified += b.MarkModified(i, j-i)
		i = j
	}
	tx, err := e.Begin()
	if err != nil {
		return err
	}
	tx.bufs.Insert(b)
	e.stats.mbufAdd(int64(b.Footprint())) // table ownership (released at commit)
	tx.statModBytes = modified
	tx.statObjs[b.OID.Off] = true
	return tx.Commit()
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
