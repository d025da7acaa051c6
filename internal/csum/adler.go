// Package csum implements the checksums Pangolin uses to detect NVMM
// corruption.
//
// The paper picks Adler32 over CRC32 because Adler32 supports incremental
// updates: when a transaction modifies a range of an object, the object's
// checksum can be refreshed in time proportional to the modified range
// rather than the whole object (§3.5). This package implements that
// range-replacement update from first principles (the standard library's
// hash/adler32 has no such operation) plus a CRC32 path used as the
// ablation baseline.
package csum

import "encoding/binary"

// adlerMod is the largest prime smaller than 2^16, per RFC 1950.
const adlerMod = 65521

// maxChunk is how many bytes Continue sums into its 64-bit accumulators
// before reducing: b grows by at most 255·n²/2 + 65520·(n+1), far inside
// 64 bits at 2^20.
const maxChunk = 1 << 20

// Lane constants for the block kernel. A little-endian 8-byte word splits
// into its even bytes (0,2,4,6) and odd bytes (1,3,5,7), each in four
// 16-bit lanes; multiplying by a constant whose lanes hold weights in
// reverse order collects Σ weight·lane in the product's top lane. Lanes
// are summed across a block's four words before multiplying, and no lane
// can carry: the largest top-lane total below is 1020·20 + 1020·16.
const (
	laneMask = 0x00FF00FF00FF00FF
	laneOnes = 0x0001000100010001 // Σ lane
	laneEven = 8<<48 | 6<<32 | 4<<16 | 2
	laneOdd  = 7<<48 | 5<<32 | 3<<16 | 1
)

// Adler32 computes the Adler-32 checksum of data.
func Adler32(data []byte) uint32 {
	return Continue(1, data)
}

// Continue extends an Adler-32 state over more bytes: streaming
// concatenation, Continue(Adler32(a), b) == Adler32(a||b).
//
// The textbook loop (a += d; b += a per byte) is one serial dependency
// chain. This kernel — the library's stand-in for the paper's ISA-L SIMD
// checksums — works a 32-byte block at a time. With s_j = Σd over word j
// and w = Σ(8−i)·d over every word's bytes (i the byte's index in its
// word), the block folds in as
//
//	b += 32·a + 8·(3·s_0 + 2·s_1 + s_2) + w;  a += s_0 + s_1 + s_2 + s_3
//
// where the three sums come from three multiplies that do not depend on a
// or b, so consecutive blocks overlap in the pipeline.
func Continue(sum uint32, data []byte) uint32 {
	a, b := uint64(sum&0xffff), uint64(sum>>16)
	for len(data) > 0 {
		chunk := data
		if len(chunk) > maxChunk {
			chunk = chunk[:maxChunk]
		}
		data = data[len(chunk):]
		for len(chunk) >= 32 {
			c := chunk[:32]
			x0 := binary.LittleEndian.Uint64(c[0:])
			x1 := binary.LittleEndian.Uint64(c[8:])
			x2 := binary.LittleEndian.Uint64(c[16:])
			x3 := binary.LittleEndian.Uint64(c[24:])
			e0, o0 := x0&laneMask, x0>>8&laneMask
			e1, o1 := x1&laneMask, x1>>8&laneMask
			e2, o2 := x2&laneMask, x2>>8&laneMask
			e3, o3 := x3&laneMask, x3>>8&laneMask
			p0, p1, p2 := e0+o0, e1+o1, e2+o2
			even, odd := e0+e1+e2+e3, o0+o1+o2+o3
			s := (even + odd) * laneOnes >> 48
			w := (even*laneEven + odd*laneOdd) >> 48
			t := (3*p0 + 2*p1 + p2) * laneOnes >> 48
			b += 32*a + 8*t + w
			a += s
			chunk = chunk[32:]
		}
		for _, c := range chunk {
			a += uint64(c)
			b += a
		}
		a %= adlerMod
		b %= adlerMod
	}
	return uint32(b)<<16 | uint32(a)
}

// Update returns the Adler-32 checksum of a buffer of total length total
// after the bytes at [off, off+len(old)) are replaced: sum is the checksum
// of the original buffer, old are the bytes being replaced and new_ their
// replacements (equal lengths). The cost is O(len(old)), independent of
// total — the property that makes per-object checksums affordable for large
// objects (§3.5).
//
// Derivation: with d_i the i-th byte of an n-byte buffer,
//
//	a = 1 + Σ d_i            (mod 65521)
//	b = n + Σ (n-i)·d_i      (mod 65521)
//
// so replacing d_j..d_{j+m-1} shifts a by Σ(new-old) and b by
// Σ (n-i)·(new_i-old_i), all mod 65521.
func Update(sum uint32, total uint64, off uint64, old, new_ []byte) uint32 {
	if len(old) != len(new_) {
		panic("csum: Update requires equal-length old and new ranges")
	}
	if off+uint64(len(old)) > total {
		panic("csum: Update range exceeds buffer length")
	}
	n := total % adlerMod
	var da, db uint64 // accumulated shifts; each term < 65521², reduce rarely
	for i := range old {
		idx := (off + uint64(i)) % adlerMod
		w := (n + adlerMod - idx) % adlerMod
		diff := (uint64(new_[i]) + adlerMod - uint64(old[i])) % adlerMod
		da += diff
		db += w * diff
		if i&0xFFFFFFF == 0xFFFFFFF { // guard against (absurdly) long ranges
			da %= adlerMod
			db %= adlerMod
		}
	}
	a := (uint64(sum&0xffff) + da) % adlerMod
	b := (uint64(sum>>16) + db) % adlerMod
	return uint32(b)<<16 | uint32(a)
}
