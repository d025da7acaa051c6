// Package parity maintains Pangolin's RAID-style zone parity (§3.1, §3.5).
//
// Each zone reserves its last chunk row as parity: for every column byte c,
// parity[c] = ⊕ over all data rows r of row_r[c]. Transactions keep the
// invariant incrementally — a write replacing old with new XORs the patch
// old⊕new into the covering parity range. Because XOR commutes, concurrent
// transactions touching overlapping parity (objects in different rows of
// the same columns) need no ordering between their patches.
//
// The hybrid update scheme mirrors the paper: small patches take parity
// range-locks in shared mode and apply aligned atomic 8-byte XORs; large
// patches take the locks exclusively and use the vectorized kernel. The
// crossover (Threshold) is measured in §4.1 of the paper at 8 KB.
package parity

import (
	"bytes"
	"fmt"
	"sync"

	"github.com/pangolin-go/pangolin/internal/layout"
	"github.com/pangolin-go/pangolin/internal/nvm"
	"github.com/pangolin-go/pangolin/internal/xor"
)

// DefaultThreshold is the patch size at which updates switch from atomic
// XOR (shared lock) to vectorized XOR (exclusive lock). The paper measures
// the crossover at 8 KB on Optane (§4.1).
const DefaultThreshold = 8 * 1024

// Parity maintains the parity rows of every zone in a pool.
type Parity struct {
	dev       *nvm.Device
	geo       layout.Geometry
	lay       layout.Resolved // geo's zone arithmetic, for the per-commit Update
	threshold uint64
	locks     [][]sync.RWMutex // [zone][rangeLock]

	// verifyAcc is VerifyRange's stripe accumulator, allocated on first
	// use and kept, so a scrub step allocates nothing; verifyMu
	// serializes its users.
	verifyMu  sync.Mutex
	verifyAcc []byte
}

// verifyStripe is how many columns VerifyRange checks at a time.
const verifyStripe = 64 * 1024

// New creates the parity manager. threshold ≤ 0 selects DefaultThreshold.
func New(dev *nvm.Device, geo layout.Geometry, threshold int) *Parity {
	t := uint64(DefaultThreshold)
	if threshold > 0 {
		t = uint64(threshold)
	}
	n := (geo.RowSize() + geo.RangeLockBytes - 1) / geo.RangeLockBytes
	locks := make([][]sync.RWMutex, geo.NumZones)
	for z := range locks {
		locks[z] = make([]sync.RWMutex, n)
	}
	return &Parity{dev: dev, geo: geo, lay: geo.Resolve(), threshold: t, locks: locks}
}

// Threshold returns the hybrid crossover in bytes.
func (p *Parity) Threshold() uint64 { return p.threshold }

// lockRange returns the inclusive range-lock index span covering columns
// [col, col+n).
func (p *Parity) lockRange(col, n uint64) (first, last uint64) {
	return col / p.geo.RangeLockBytes, (col + n - 1) / p.geo.RangeLockBytes
}

// Update XORs delta into zone z's parity at columns [col, col+len(delta)).
// The range must lie within one row (callers split object ranges at row
// boundaries). The parity bytes are flushed but not fenced: callers batch
// a single Fence per commit.
//
// Patches smaller than the threshold use atomic XOR under shared
// range-locks so arbitrarily many transactions proceed concurrently; larger
// patches take the locks exclusively and use vectorized XOR (§3.5).
func (p *Parity) Update(z, col uint64, delta []byte) {
	n := uint64(len(delta))
	if n == 0 {
		return
	}
	if col+n > p.lay.RowSize() {
		panic(fmt.Sprintf("parity: update [%d,%d) exceeds row size %d", col, col+n, p.lay.RowSize()))
	}
	first, last := p.lockRange(col, n)
	off := p.lay.ParityOff(z, col)
	if n < p.threshold {
		for i := first; i <= last; i++ {
			p.locks[z][i].RLock()
		}
		// The XOR covers, and the flush writes back, the 8-aligned words
		// around the patch; their other bytes XOR with zero.
		p.dev.AtomicXorRange(off, delta)
		lo := off &^ 7
		p.dev.Flush(lo, (off+n+7)&^7-lo)
		for i := last + 1; i > first; i-- {
			p.locks[z][i-1].RUnlock()
		}
		return
	}
	for i := first; i <= last; i++ {
		p.locks[z][i].Lock()
	}
	p.dev.MarkDirty(off, n)
	xor.Into(p.dev.Slice(off, n), delta)
	p.dev.Flush(off, n)
	for i := last + 1; i > first; i-- {
		p.locks[z][i-1].Unlock()
	}
}

// ReconstructColumn computes, for zone z and columns [col, col+n), the XOR
// of the parity row and every data row except excludeRow, writing the
// result into dst. With 0 ≤ excludeRow < DataRows this reconstructs the
// excluded row's lost data (single-failure recovery, §3.6); the caller
// must have quiesced transactions. Surviving rows are read with poison
// checks: a second failure in the same columns surfaces as an error
// (the multi-page-loss case the paper calls unrecoverable).
func (p *Parity) ReconstructColumn(z uint64, col, n uint64, excludeRow uint64, dst []byte) error {
	if uint64(len(dst)) != n {
		return fmt.Errorf("parity: dst length %d != %d", len(dst), n)
	}
	if col+n > p.geo.RowSize() {
		return fmt.Errorf("parity: column range [%d,%d) exceeds row size", col, col+n)
	}
	if excludeRow >= p.geo.DataRows() {
		return fmt.Errorf("parity: excludeRow %d out of range", excludeRow)
	}
	if err := p.dev.ReadAt(dst, p.geo.ParityOff(z, col)); err != nil {
		return fmt.Errorf("parity: reading parity row: %w", err)
	}
	buf := make([]byte, n)
	for r := uint64(0); r < p.geo.DataRows(); r++ {
		if r == excludeRow {
			continue
		}
		if err := p.dev.ReadAt(buf, p.geo.RowByteOff(z, r, col)); err != nil {
			return fmt.Errorf("parity: reading surviving row %d: %w", r, err)
		}
		xor.Into(dst, buf)
	}
	return nil
}

// RecomputeColumn rewrites zone z's parity for columns [col, col+n) from
// the current contents of all data rows, persisting the result. Crash
// recovery uses it for the column ranges touched by replayed transactions,
// since parity updates are not logged (§3.6). The caller must have
// quiesced transactions.
func (p *Parity) RecomputeColumn(z, col, n uint64) error {
	if col+n > p.geo.RowSize() {
		return fmt.Errorf("parity: column range [%d,%d) exceeds row size", col, col+n)
	}
	acc := make([]byte, n)
	buf := make([]byte, n)
	for r := uint64(0); r < p.geo.DataRows(); r++ {
		if err := p.dev.ReadAt(buf, p.geo.RowByteOff(z, r, col)); err != nil {
			return fmt.Errorf("parity: reading row %d: %w", r, err)
		}
		xor.Into(acc, buf)
	}
	off := p.geo.ParityOff(z, col)
	first, last := p.lockRange(col, n)
	for i := first; i <= last; i++ {
		p.locks[z][i].Lock()
	}
	p.dev.WriteAt(off, acc)
	p.dev.Persist(off, n)
	for i := last + 1; i > first; i-- {
		p.locks[z][i-1].Unlock()
	}
	return nil
}

// VerifyZone checks the parity invariant P1 for zone z: parity equals the
// XOR of all data rows. It returns the first mismatching column, or -1 if
// the zone verifies. The caller must have quiesced transactions.
func (p *Parity) VerifyZone(z uint64) (int64, error) {
	return p.VerifyRange(z, 0, p.geo.RowSize())
}

// VerifyRange checks the parity invariant for zone z's columns
// [start, start+span) only — the bounded unit an incremental scrub step
// verifies, so a full zone never has to be checked under one freeze
// window. It returns the first mismatching column (an absolute column
// offset within the row), or -1 if the range verifies. The caller must
// have quiesced transactions.
func (p *Parity) VerifyRange(z uint64, start, span uint64) (int64, error) {
	rowSize := p.geo.RowSize()
	if start >= rowSize {
		return -1, nil
	}
	end := min(start+span, rowSize)
	p.verifyMu.Lock()
	defer p.verifyMu.Unlock()
	if p.verifyAcc == nil {
		p.verifyAcc = make([]byte, verifyStripe)
	}
	for col := start; col < end; col += verifyStripe {
		n := min(verifyStripe, end-col)
		acc := p.verifyAcc[:n]
		clear(acc)
		for r := uint64(0); r < p.geo.DataRows(); r++ {
			row, err := p.view(p.geo.RowByteOff(z, r, col), n)
			if err != nil {
				return 0, fmt.Errorf("parity: verify read row %d: %w", r, err)
			}
			xor.Into(acc, row)
		}
		par, err := p.view(p.geo.ParityOff(z, col), n)
		if err != nil {
			return 0, fmt.Errorf("parity: verify read parity: %w", err)
		}
		if bytes.Equal(acc, par) {
			continue
		}
		for i := range acc {
			if acc[i] != par[i] {
				return int64(col) + int64(i), nil
			}
		}
	}
	return -1, nil
}

// view returns the device bytes [off, off+n) to read in place, failing
// as ReadAt would on a poisoned page.
func (p *Parity) view(off, n uint64) ([]byte, error) {
	if err := p.dev.CheckPoison(off, n); err != nil {
		return nil, err
	}
	return p.dev.Slice(off, n), nil
}
