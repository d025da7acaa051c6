// Package xor provides the XOR kernels behind Pangolin's parity scheme:
// word-unrolled "vectorized" XOR (the ISA-L SIMD analog) and parity-delta
// computation. Atomic per-word XOR lives on nvm.Device (Xor64,
// AtomicXorRange); this package supplies the plain-memory variants.
package xor

import "encoding/binary"

// Delta writes old ⊕ new into dst. All slices must have equal length; dst
// may alias old or new. The result is the "parity patch" of §3.5:
// P' = P ⊕ Delta(old, new).
func Delta(dst, old, new_ []byte) {
	if len(old) != len(new_) || len(dst) != len(old) {
		panic("xor: Delta length mismatch")
	}
	i := 0
	for ; i+8 <= len(old); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(old[i:])^binary.LittleEndian.Uint64(new_[i:]))
	}
	for ; i < len(old); i++ {
		dst[i] = old[i] ^ new_[i]
	}
}

// Into XORs src into dst (dst ^= src), word-unrolled. This is the
// "vectorized XOR" path used for large parity updates under an exclusive
// range-lock.
func Into(dst, src []byte) {
	if len(dst) != len(src) {
		panic("xor: Into length mismatch")
	}
	i := 0
	for ; i+8 <= len(src); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(dst[i:])^binary.LittleEndian.Uint64(src[i:]))
	}
	for ; i < len(src); i++ {
		dst[i] ^= src[i]
	}
}
